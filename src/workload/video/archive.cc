#include "src/workload/video/archive.h"

#include <algorithm>

#include "src/base/check.h"

namespace soccluster {

namespace {

// A quality-matched archive job saturates the SoC CPU (§4's x264
// "slow"-class settings use all cores) and holds the SoC's one slot.
constexpr PlacementDemand kJobDemand{.cpu_util = 1.0, .slots = 1};

SocCapacityView::Options ViewOptions() {
  SocCapacityView::Options options;
  options.slot_capacity = 1;
  return options;
}

// Every feasible SoC has zero CPU load, so kSpread picks the lowest index.
// A failed pick is back-pressure: completions re-run the dispatch loop.
Placer::Options PlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.count_rejections = false;
  return options;
}

}  // namespace

ArchiveTranscodingService::ArchiveTranscodingService(Simulator* sim,
                                                     SocCluster* cluster,
                                                     ArchiveScheduling
                                                         scheduling,
                                                     int max_concurrent_socs)
    : sim_(sim), scheduling_(scheduling),
      max_concurrent_(max_concurrent_socs == 0 ? cluster->num_socs()
                                               : max_concurrent_socs),
      view_(cluster, ViewOptions()),
      placer_(sim, &view_, PlacerOptions()) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK_GT(max_concurrent_, 0);
}

Result<int64_t> ArchiveTranscodingService::SubmitJob(
    VbenchVideo video, Duration duration_of_video, JobCallback on_done) {
  if (duration_of_video.nanos() <= 0) {
    return Status::InvalidArgument("empty clip");
  }
  Job job;
  job.id = next_id_++;
  job.video = video;
  job.frames = static_cast<int64_t>(duration_of_video.ToSeconds() *
                                    GetVideo(video).fps);
  job.submitted = sim_->Now();
  job.on_done = std::move(on_done);
  const int64_t id = job.id;
  queue_.push_back(std::move(job));
  TryDispatch();
  return id;
}

Duration ArchiveTranscodingService::ProcessingTime(const Job& job) const {
  const double fps =
      TranscodeModel::ArchiveJobFps(TranscodeBackend::kSocCpu, job.video);
  SOC_CHECK_GT(fps, 0.0);
  return Duration::SecondsF(static_cast<double>(job.frames) / fps);
}

void ArchiveTranscodingService::TryDispatch() {
  while (!queue_.empty() && running_jobs() < max_concurrent_) {
    const int soc_index = placer_.Pick(kJobDemand);
    if (soc_index < 0) {
      return;
    }
    // Pick the next job per policy.
    auto it = queue_.begin();
    if (scheduling_ == ArchiveScheduling::kShortestJobFirst) {
      it = std::min_element(queue_.begin(), queue_.end(),
                            [this](const Job& a, const Job& b) {
                              return ProcessingTime(a) < ProcessingTime(b);
                            });
    }
    Job job = std::move(*it);
    queue_.erase(it);

    const Reservation reservation = view_.Reserve(soc_index, kJobDemand);
    ++running_;
    const SimTime started = sim_->Now();
    const Duration processing = ProcessingTime(job);
    sim_->ScheduleAfter(processing, [this, job = std::move(job), reservation,
                                     started]() mutable {
      view_.Release(reservation);
      --running_;
      ++completed_;
      ArchiveJobReport report;
      report.job_id = job.id;
      report.video = job.video;
      report.frames = job.frames;
      report.queue_wait = started - job.submitted;
      report.processing = sim_->Now() - started;
      report.turnaround = sim_->Now() - job.submitted;
      turnaround_minutes_.Add(report.turnaround.ToSeconds() / 60.0);
      if (job.on_done) {
        job.on_done(report);
      }
      TryDispatch();
    }, "video.archive");
  }
}

}  // namespace soccluster
