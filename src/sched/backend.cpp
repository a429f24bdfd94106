#include "sched/backend.h"

#include <array>
#include <utility>

#include "cluster/route.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

class SingleClusterBackend final : public SchedulerBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "single-cluster"; }

  [[nodiscard]] ScheduleOutcome schedule(const ScheduleRequest& request) const override {
    ScheduleOutcome outcome;
    outcome.ims =
        ims_schedule(*request.loop, *request.graph, *request.machine, request.ims,
                     /*assigner=*/nullptr, request.seed);
    return outcome;
  }
};

class ClusteredBackend final : public SchedulerBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "clustered"; }

  [[nodiscard]] ScheduleOutcome schedule(const ScheduleRequest& request) const override {
    PartitionOptions options;
    options.heuristic = request.heuristic;
    options.ims = request.ims;
    ScheduleOutcome outcome;
    outcome.ims = partition_schedule(*request.loop, *request.graph, *request.machine, options,
                                     request.seed);
    return outcome;
  }
};

class ClusteredMovesBackend final : public SchedulerBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "clustered-moves"; }

  /// The router reschedules rewritten loops internally; cached MII bounds
  /// for the pre-routing loop must not leak into those runs.
  [[nodiscard]] bool consumes_cached_mii() const override { return false; }

  /// Moves change the loop itself, so a neighbouring point's schedule
  /// does not transfer.
  [[nodiscard]] bool supports_warm_start() const override { return false; }

  [[nodiscard]] ScheduleOutcome schedule(const ScheduleRequest& request) const override {
    PartitionOptions options;
    options.heuristic = request.heuristic;
    options.ims = request.ims;
    ScheduleOutcome outcome;
    RouteResult routed = partition_with_moves(*request.loop, *request.machine, options);
    if (!routed.ok) {
      outcome.ims.failure = std::move(routed.failure);
      outcome.ims.stats = routed.ims.stats;  // the effort of every round
      return outcome;
    }
    outcome.ims = std::move(routed.ims);
    outcome.rewrote = true;
    outcome.moves_added = routed.moves_added;
    outcome.rewritten_graph =
        std::make_shared<const Ddg>(Ddg::build(routed.loop, request.machine->latency));
    outcome.rewritten_loop = std::move(routed.loop);
    return outcome;
  }
};

constinit const SingleClusterBackend kSingleCluster{};
constinit const ClusteredBackend kClustered{};
constinit const ClusteredMovesBackend kClusteredMoves{};

/// The backend table, indexed by SchedulerKind.
constexpr std::array<const SchedulerBackend*, 3> kBackends = {&kSingleCluster, &kClustered,
                                                              &kClusteredMoves};

}  // namespace

const SchedulerRegistry& SchedulerRegistry::instance() {
  static const SchedulerRegistry registry;
  return registry;
}

const SchedulerBackend* SchedulerRegistry::find(std::string_view name) const {
  for (const SchedulerBackend* backend : kBackends) {
    if (backend->name() == name) return backend;
  }
  return nullptr;
}

const SchedulerBackend& SchedulerRegistry::require(std::string_view name) const {
  const SchedulerBackend* backend = find(name);
  if (backend == nullptr) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw Error(cat("unknown scheduler backend '", name, "' (registered: ", known, ")"));
  }
  return *backend;
}

std::vector<std::string> SchedulerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(kBackends.size());
  for (const SchedulerBackend* backend : kBackends) out.emplace_back(backend->name());
  return out;
}

const SchedulerBackend& scheduler_backend(SchedulerKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  QVLIW_ASSERT(index < kBackends.size(), "bad SchedulerKind");
  return *kBackends[index];
}

std::string_view scheduler_kind_name(SchedulerKind kind) { return scheduler_backend(kind).name(); }

const SchedulerBackend* find_scheduler_backend(SchedulerKind kind,
                                               std::string_view override_name) {
  if (!override_name.empty()) return SchedulerRegistry::instance().find(override_name);
  return &scheduler_backend(kind);
}

}  // namespace qvliw
