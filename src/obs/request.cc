#include "src/obs/request.h"

namespace soccluster {
namespace {

// Tests enablement first, so with tracing off no hop reads the context
// or measures its category.
bool Ready(const Tracer* tracer, const RequestContext* ctx) {
  return tracer != nullptr && tracer->enabled() && ctx != nullptr &&
         ctx->id != 0;
}

void End(Tracer* tracer, const RequestContext* ctx, const char* hop,
         int64_t track) {
  if (Ready(tracer, ctx)) {
    tracer->FlowEnd(hop, ctx->category, ctx->id, track);
  }
}

}  // namespace

void TraceRequestSubmit(Tracer* tracer, RequestContext* ctx,
                        const char* category, SimTime now, int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->submit = now;
  ctx->category = category;
  if (Ready(tracer, ctx)) {
    tracer->FlowBegin("submit", category, ctx->id, track);
  }
}

void TraceRequestStep(Tracer* tracer, const RequestContext* ctx,
                      const char* hop, int64_t track) {
  if (Ready(tracer, ctx)) {
    tracer->FlowStep(hop, ctx->category, ctx->id, track);
  }
}

void TraceRequestComplete(Tracer* tracer, const RequestContext* ctx,
                          int64_t track) {
  End(tracer, ctx, "complete", track);
}

void TraceRequestDrop(Tracer* tracer, const RequestContext* ctx,
                      int64_t track) {
  End(tracer, ctx, "drop", track);
}

}  // namespace soccluster
