#include "master/worker.h"

#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::master {

Worker::Worker(std::size_t id, sched::PeId pe, const WorkerContext& context,
               ConcurrentQueue<TaskReport>& results)
    : id_(id), pe_(pe), context_(context), results_(results) {
  SWDUAL_REQUIRE(context.queries != nullptr && context.db != nullptr,
                 "worker context incomplete");
  if (pe_.type == sched::PeType::kGpu) {
    gpusim::DeviceSpec spec;
    spec.gcups = context_.model.gpu_worker().gcups;
    gpu_ = std::make_unique<gpusim::VirtualGpu>(spec);
  } else if (context_.threads_per_cpu_worker > 1) {
    align::ParallelSearchOptions options;
    options.threads = context_.threads_per_cpu_worker;
    options.tracer = context_.tracer;
    options.metrics = context_.metrics;
    options.trace_track = obs::worker_track(id_);
    engine_ =
        std::make_unique<align::ParallelSearchEngine>(*context_.db, options);
  }
  thread_ = std::thread([this] { run(); });
}

Worker::~Worker() {
  commands_.close();
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  while (auto order = commands_.pop()) {
    // The master keeps the result queue open until every worker joined, so
    // a rejected push means a task report (and a waiting collect loop) would
    // be lost — that invariant breaking is unrecoverable here.
    SWDUAL_CHECK(results_.push(execute(*order)),
                 "result queue closed while worker " + std::to_string(id_) +
                     " was executing");
  }
}

align::FilteredSearchResult Worker::search_gpu(
    const align::SearchProfiles& profiles, TaskReport& report) {
  const align::DbView& db = *context_.db;
  double device_seconds = 0.0;
  const align::RescanKernel device = [this, &profiles, &device_seconds](
                                         const align::DbView& records) {
    gpusim::BatchResult batch = gpu_->run_batch(profiles, records);
    device_seconds += batch.virtual_seconds;
    align::SearchResult scan;
    scan.scores = std::move(batch.scores);
    scan.cells = batch.cells;
    return scan;
  };
  align::FilteredSearchResult out;
  if (!context_.filter.enabled()) {
    out.result = device(db);
    out.hits = out.result.top(context_.top_hits);
    report.virtual_seconds = device_seconds;
    return out;
  }
  // Host-side stage 1: the banded screen is a CPU kernel (CUDASW++-class
  // tools run exactly this kind of host prefilter before shipping work), and
  // only stage 2's candidates go to the device. Screens and candidate
  // selection are deterministic, so a GPU-executed filtered task reports the
  // same hits as a CPU-executed one.
  align::ScreenResult screen =
      align::screen_range(profiles, db, 0, db.size(), context_.filter.band);
  const std::uint64_t host_cells = screen.cells;
  out = align::filter_rescore(std::move(screen), db, context_.top_hits,
                              context_.filter, device, {}, context_.tracer,
                              context_.metrics, obs::worker_track(id_));
  // Charge the screen to the host CPU and the candidate batch to the device.
  report.virtual_seconds =
      context_.model.cpu_worker().seconds_for(host_cells) + device_seconds;
  return out;
}

TaskReport Worker::execute(const TaskOrder& order) {
  const seq::Sequence& query = (*context_.queries)[order.query_index];
  const align::DbView& db = *context_.db;
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  TaskReport report;
  report.task_id = order.task_id;
  report.query_index = order.query_index;
  report.worker_id = id_;
  report.pe = pe_;

  if (context_.fault_injector &&
      context_.fault_injector(order.task_id, id_)) {
    if (context_.tracer) {
      context_.tracer->instant(
          "fault", "fault", obs::worker_track(id_),
          {{"task_id", static_cast<double>(order.task_id)},
           {"worker", static_cast<double>(id_)}});
    }
    if (context_.metrics) context_.metrics->add("task_faults");
    report.failed = true;
    return report;
  }

  obs::Span span;
  if (context_.tracer) {
    span = context_.tracer->span("task", "task", obs::worker_track(id_));
    span.arg("task_id", static_cast<double>(order.task_id));
    span.arg("query", static_cast<double>(order.query_index));
    span.arg("worker", static_cast<double>(id_));
  }

  WallTimer timer;
  // One profile set per task: resident in the shared cache, or built here.
  // GPU workers run the device's inter-sequence kernel on the default
  // backend; CPU workers run the configured kernel and backend.
  const bool gpu = pe_.type == sched::PeType::kGpu;
  const align::KernelKind kernel =
      gpu ? align::KernelKind::kInterSeq : context_.cpu_kernel;
  const align::Backend backend =
      gpu ? align::Backend::kAuto : context_.cpu_backend;
  std::shared_ptr<const align::CachedProfiles> cached;
  std::optional<align::SearchProfiles> local;
  if (context_.profile_cache) {
    cached = context_.profile_cache->acquire(query_view, context_.scheme,
                                             kernel, backend);
  } else {
    local.emplace(query_view, context_.scheme, kernel, backend);
  }
  const align::SearchProfiles& profiles = cached ? cached->profiles() : *local;

  align::FilteredSearchResult out;
  if (gpu) {
    out = search_gpu(profiles, report);
  } else {
    out = engine_ ? engine_->search_filtered(profiles, context_.top_hits,
                                             context_.filter)
                  : align::search_database_filtered(
                        profiles, db, context_.top_hits, context_.filter,
                        context_.tracer, context_.metrics,
                        obs::worker_track(id_));
    report.virtual_seconds =
        context_.model.cpu_worker().seconds_for(out.result.cells);
  }
  report.hits = std::move(out.hits);
  report.filter = out.stats;
  report.cells = out.result.cells;
  report.wall_seconds = timer.seconds();
  // Successful tasks tile the worker's virtual timeline back to back, so
  // per-track span sums reproduce SearchReport::worker_virtual_busy.
  span.arg("cells", static_cast<double>(report.cells));
  span.virtual_interval(virtual_clock_,
                        virtual_clock_ + report.virtual_seconds);
  virtual_clock_ += report.virtual_seconds;
  if (context_.metrics) {
    context_.metrics->observe("task_virtual_seconds", report.virtual_seconds);
  }
  return report;
}

}  // namespace swdual::master
