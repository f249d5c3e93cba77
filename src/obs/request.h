// Per-request causal context: the admission -> placement -> dispatch ->
// completion path of one request, emitted as Perfetto flow events that
// link the existing spans across tracks.
//
// A workload allocates one RequestContext per logical request (the service
// owns it; the AdmissionQueue and Placer only borrow a pointer), then calls
// the Trace* helpers at each hop. Helpers emit a flow point only when a
// tracer is attached and enabled, and test that before they read the
// context (the category's length included), so instrumented paths never
// branch on enablement themselves. Everything here is observers-only state: nothing is folded
// into digests and nothing feeds back into the simulation.

#ifndef SRC_OBS_REQUEST_H_
#define SRC_OBS_REQUEST_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/obs/trace.h"

namespace soccluster {

struct RequestContext {
  uint64_t id = 0;  // Service-unique; doubles as the flow id.
  // Flow category: a static literal, set by TraceRequestSubmit. Layers
  // that only borrow the context (Placer) reuse it so their flow points
  // join the same chain. A pointer, not a string, so a context never
  // allocates (service categories outgrow the small-string buffer).
  const char* category = "";
  SimTime submit;  // Stamped by TraceRequestSubmit.
};

// Flow emission helpers. TraceRequestSubmit stamps `category` into the
// context (use the service's span category, e.g. "dl.serving", so request
// ids from different services cannot collide into one chain); every later
// hop reuses it, which keeps a chain's points consistent even when the
// context crosses layers (AdmissionQueue, Placer). `tracer` and `ctx` may
// be null.
void TraceRequestSubmit(Tracer* tracer, RequestContext* ctx,
                        const char* category, SimTime now, int64_t track = 0);
// An intermediate hop: "admit", "dispatch", "retry", "failover".
void TraceRequestStep(Tracer* tracer, const RequestContext* ctx,
                      const char* hop, int64_t track = 0);
void TraceRequestComplete(Tracer* tracer, const RequestContext* ctx,
                          int64_t track = 0);
void TraceRequestDrop(Tracer* tracer, const RequestContext* ctx,
                      int64_t track = 0);

}  // namespace soccluster

#endif  // SRC_OBS_REQUEST_H_
