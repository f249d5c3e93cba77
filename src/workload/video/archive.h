// Archive transcoding service (§4: the second transcoding scenario —
// converting stored clips at consistent quality before distribution).
//
// Jobs are whole clips; one job occupies one SoC's CPU until its frames
// are processed at the calibrated single-job rate. The service runs a
// queue with FIFO or shortest-job-first scheduling and reports turnaround
// and energy, giving the cluster-side counterpart of the paper's per-job
// archive measurements. A kSpread Placer picks the host, so archive work
// only lands on placeable (healthy, unquarantined) SoCs with a whole idle
// CPU, codec-daemon shares included. Each running job holds one
// Reservation (the SoC's slot and its whole CPU) until its frames are
// done; if the SoC failed in between, the release returns only the slot,
// never CPU that belongs to whatever runs there now.

#ifndef SRC_WORKLOAD_VIDEO_ARCHIVE_H_
#define SRC_WORKLOAD_VIDEO_ARCHIVE_H_

#include <cstdint>
#include <deque>

#include "src/base/result.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/sched/capacity.h"
#include "src/sched/placer.h"
#include "src/workload/video/transcode.h"

namespace soccluster {

enum class ArchiveScheduling {
  kFifo,
  kShortestJobFirst,
};

struct ArchiveJobReport {
  int64_t job_id = 0;
  VbenchVideo video = VbenchVideo::kV1Holi;
  int64_t frames = 0;
  Duration queue_wait;
  Duration processing;
  Duration turnaround;  // wait + processing.
};

class ArchiveTranscodingService {
 public:
  using JobCallback = std::function<void(const ArchiveJobReport&)>;

  // `max_concurrent_socs` bounds how many SoCs archive work may occupy
  // (archive is batch work sharing the cluster with latency-critical
  // services). Zero means "all SoCs".
  ArchiveTranscodingService(Simulator* sim, SocCluster* cluster,
                            ArchiveScheduling scheduling,
                            int max_concurrent_socs);
  ArchiveTranscodingService(const ArchiveTranscodingService&) = delete;
  ArchiveTranscodingService& operator=(const ArchiveTranscodingService&) =
      delete;

  // Enqueues a clip of `duration_of_video` content; returns the job id.
  Result<int64_t> SubmitJob(VbenchVideo video, Duration duration_of_video,
                            JobCallback on_done);

  int queued_jobs() const { return static_cast<int>(queue_.size()); }
  int running_jobs() const { return running_; }
  int64_t completed_jobs() const { return completed_; }
  const SampleStats& turnaround_minutes() const { return turnaround_minutes_; }

 private:
  struct Job {
    int64_t id;
    VbenchVideo video;
    int64_t frames;
    SimTime submitted;
    JobCallback on_done;
  };

  void TryDispatch();
  // Expected processing time of a job on the SD865.
  Duration ProcessingTime(const Job& job) const;

  Simulator* sim_;
  ArchiveScheduling scheduling_;
  int max_concurrent_;
  // One slot per SoC: a SoC stays busy with its archive job until the job
  // finishes, even when a fail/repair cycle wiped the job's CPU charge.
  SocCapacityView view_;
  Placer placer_;
  std::deque<Job> queue_;
  int running_ = 0;
  int64_t next_id_ = 1;
  int64_t completed_ = 0;
  SampleStats turnaround_minutes_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_VIDEO_ARCHIVE_H_
