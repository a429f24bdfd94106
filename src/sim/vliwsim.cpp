#include "sim/vliwsim.h"

#include <algorithm>
#include <deque>
#include <map>

#include "sim/eval.h"
#include "sim/interp.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

struct QueueEntry {
  int producer = -1;
  long long iteration = 0;
  std::int64_t value = 0;
};

struct PushEvent {
  int queue = -1;
  QueueEntry entry;
  bool live_in = false;
};

class Simulator {
 public:
  Simulator(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
            const Schedule& schedule, const QueueAllocation& allocation, long long trip,
            const SimOptions& options)
      : loop_(loop),
        graph_(graph),
        machine_(machine),
        schedule_(schedule),
        allocation_(allocation),
        trip_(trip),
        options_(options),
        result_{} {
    result_.memory = MemoryImage(static_cast<int>(loop.arrays.size()),
                                 memory_elements(loop, trip), options.seed);
  }

  SimResult run() {
    check(trip_ >= 1, "simulate: trip must be >= 1");
    check(schedule_.complete(), "simulate: incomplete schedule");
    check(loop_.op_count() == graph_.node_count(), "simulate: loop/DDG mismatch");

    build_edge_tables();
    schedule_live_ins();
    schedule_drain_pops();
    schedule_issues();

    queues_.assign(allocation_.queues.size(), {});
    depth_limit_.assign(allocation_.queues.size(), 0);
    for (std::size_t q = 0; q < allocation_.queues.size(); ++q) {
      const QueueDomain& domain = allocation_.queues[q].domain;
      depth_limit_[q] = domain.kind == QueueDomain::Kind::kPrivate
                            ? machine_.cluster(domain.index).queue_depth
                            : machine_.segment.queue_depth;
    }

    for (long long t = t_min_; t <= t_max_ && failure_.empty(); ++t) {
      step(t);
    }

    const LatencyModel& lat = machine_.latency;
    result_.cycles = schedule_.total_cycles(loop_, lat, trip_);
    result_.dynamic_ipc = result_.cycles > 0
                              ? static_cast<double>(result_.useful_issues) /
                                    static_cast<double>(result_.cycles)
                              : 0.0;
    result_.ok = failure_.empty();
    result_.failure = failure_;
    return std::move(result_);
  }

 private:
  void fail_sim(std::string message) {
    if (failure_.empty()) failure_ = std::move(message);
  }

  /// (dst op, dst arg) -> flow edge, and flow edge -> queue.
  void build_edge_tables() {
    edge_of_arg_.assign(static_cast<std::size_t>(graph_.node_count()), {});
    for (int v = 0; v < graph_.node_count(); ++v) {
      edge_of_arg_[static_cast<std::size_t>(v)].assign(
          loop_.ops[static_cast<std::size_t>(v)].args.size(), -1);
    }
    queue_of_edge_.assign(static_cast<std::size_t>(graph_.edge_count()), -1);
    for (std::size_t lt = 0; lt < allocation_.lifetimes.size(); ++lt) {
      const Lifetime& lifetime = allocation_.lifetimes[lt];
      queue_of_edge_[static_cast<std::size_t>(lifetime.edge)] =
          allocation_.queue_of[lt];
    }
    for (int e = 0; e < graph_.edge_count(); ++e) {
      const DepEdge& edge = graph_.edge(e);
      if (!edge.is_value_flow()) continue;
      check(queue_of_edge_[static_cast<std::size_t>(e)] >= 0,
            "simulate: flow edge without an allocated queue");
      edge_of_arg_[static_cast<std::size_t>(edge.dst)][static_cast<std::size_t>(edge.dst_arg)] = e;
    }
  }

  void schedule_live_ins() {
    const int ii = schedule_.ii();
    t_min_ = 0;
    t_max_ = schedule_.total_cycles(loop_, machine_.latency, trip_);
    for (const Lifetime& lifetime : allocation_.lifetimes) {
      const DepEdge& edge = graph_.edge(lifetime.edge);
      for (int k = -edge.distance; k < 0; ++k) {
        const long long when = lifetime.push + static_cast<long long>(k) * ii;
        t_min_ = std::min(t_min_, when);
        PushEvent event;
        event.queue = queue_of_edge_[static_cast<std::size_t>(lifetime.edge)];
        event.entry = {edge.src, k, 0};
        event.live_in = true;
        pending_pushes_[when].push_back(event);
      }
    }
  }

  /// Epilogue reads: consumer instances j in [trip, trip+d) pop producer
  /// instance j-d (possibly a live-in) and discard the value.
  void schedule_drain_pops() {
    const int ii = schedule_.ii();
    for (const Lifetime& lifetime : allocation_.lifetimes) {
      const DepEdge& edge = graph_.edge(lifetime.edge);
      for (long long j = trip_; j < trip_ + edge.distance; ++j) {
        const long long k = j - edge.distance;
        const long long when = lifetime.pop + k * ii;
        t_max_ = std::max(t_max_, when);
        drain_pops_[when].push_back(
            {queue_of_edge_[static_cast<std::size_t>(lifetime.edge)], edge.src, k});
      }
    }
  }

  void schedule_issues() {
    const int ii = schedule_.ii();
    for (long long j = 0; j < trip_; ++j) {
      for (int v = 0; v < loop_.op_count(); ++v) {
        issues_[schedule_.cycle(v) + j * ii].push_back({v, j});
      }
    }
  }

  /// Port use of the cycle being stepped, per queue.
  struct CyclePorts {
    std::map<int, int> pushes;
    std::map<int, int> pops;
  };

  /// Lands one push in cycle t.  A pop issued earlier in the cycle still
  /// holds its entry until the cycle ends, so it counts toward occupancy.
  void land(const PushEvent& event, long long t, CyclePorts& ports) {
    if (!event.live_in && ++ports.pushes[event.queue] > 1) {
      fail_sim(cat("two pushes into queue ", event.queue, " at cycle ", t));
      return;
    }
    auto& fifo = queues_[static_cast<std::size_t>(event.queue)];
    fifo.push_back(event.entry);
    ++result_.pushes;
    const auto popped = ports.pops.find(event.queue);
    const int occupancy =
        static_cast<int>(fifo.size()) + (popped != ports.pops.end() ? popped->second : 0);
    result_.max_queue_occupancy = std::max(result_.max_queue_occupancy, occupancy);
    if (options_.enforce_depth &&
        occupancy > depth_limit_[static_cast<std::size_t>(event.queue)]) {
      fail_sim(cat("queue ", event.queue, " exceeded depth ",
                   depth_limit_[static_cast<std::size_t>(event.queue)], " at cycle ", t));
    }
  }

  void step(long long t) {
    CyclePorts ports;
    // Pushes land at the start of the cycle.
    if (auto it = pending_pushes_.find(t); it != pending_pushes_.end()) {
      for (const PushEvent& event : it->second) {
        land(event, t, ports);
        if (!failure_.empty()) return;
      }
      pending_pushes_.erase(it);
    }

    // Issues pop operands at the end of the cycle and compute; a latency-0
    // result lands in the cycle it issues.  Issue order (iteration, then
    // op index) puts every producer before its consumers in one cycle.
    if (const auto issue_it = issues_.find(t); issue_it != issues_.end()) {
      for (const auto& [v, j] : issue_it->second) {
        issue(v, j, t, ports);
        if (!failure_.empty()) return;
      }
    }
    // Epilogue drain reads share the cycle's pop ports.
    if (const auto drain_it = drain_pops_.find(t); drain_it != drain_pops_.end()) {
      for (const auto& [queue, producer, iteration] : drain_it->second) {
        if (++ports.pops[queue] > 1) {
          fail_sim(cat("two pops from queue ", queue, " at cycle ", t, " (drain)"));
          return;
        }
        auto& fifo = queues_[static_cast<std::size_t>(queue)];
        if (fifo.empty()) {
          fail_sim(cat("drain pop on empty queue ", queue, " at cycle ", t));
          return;
        }
        const QueueEntry front = fifo.front();
        fifo.pop_front();
        ++result_.pops;
        if (front.producer != producer || front.iteration != iteration) {
          fail_sim(cat("FIFO order broken in queue ", queue, " during drain at cycle ", t,
                       ": expected (", producer, ",", iteration, ") but popped (", front.producer,
                       ",", front.iteration, ")"));
          return;
        }
      }
    }
  }

  void issue(int v, long long j, long long t, CyclePorts& ports) {
    const Op& op = loop_.ops[static_cast<std::size_t>(v)];

    std::int64_t in[2] = {0, 0};
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      const Operand& arg = op.args[a];
      switch (arg.kind) {
        case Operand::Kind::kValue: {
          const int e = edge_of_arg_[static_cast<std::size_t>(v)][a];
          QVLIW_ASSERT(e >= 0, "value operand without a flow edge");
          const int q = queue_of_edge_[static_cast<std::size_t>(e)];
          if (++ports.pops[q] > 1) {
            fail_sim(cat("two pops from queue ", q, " at cycle ", t));
            return;
          }
          auto& fifo = queues_[static_cast<std::size_t>(q)];
          if (fifo.empty()) {
            fail_sim(cat("op ", v, " iteration ", j, " popped empty queue ", q, " at cycle ", t));
            return;
          }
          const QueueEntry front = fifo.front();
          fifo.pop_front();
          ++result_.pops;
          if (front.producer != arg.value_op || front.iteration != j - arg.distance) {
            fail_sim(cat("FIFO order broken in queue ", q, ": op ", v, " iteration ", j,
                         " expected (", arg.value_op, ",", j - arg.distance, ") but popped (",
                         front.producer, ",", front.iteration, ")"));
            return;
          }
          in[a] = front.value;
          break;
        }
        case Operand::Kind::kInvariant:
          in[a] = invariant_value(options_.seed, arg.invariant);
          break;
        case Operand::Kind::kImmediate:
          in[a] = arg.imm;
          break;
        case Operand::Kind::kIndex:
          in[a] = static_cast<std::int64_t>(loop_.stride) * j + arg.index_offset;
          break;
      }
    }

    std::int64_t value = 0;
    switch (op.opcode) {
      case Opcode::kLoad:
        value = result_.memory.load(op.array, static_cast<long long>(loop_.stride) * j + op.mem_offset);
        break;
      case Opcode::kStore:
        result_.memory.store(op.array, static_cast<long long>(loop_.stride) * j + op.mem_offset,
                             in[0]);
        break;
      case Opcode::kCopy:
      case Opcode::kMove:
        value = in[0];
        break;
      default:
        value = eval_arith(op.opcode, in[0], in[1]);
    }

    ++result_.issues;
    if (op.opcode != Opcode::kCopy && op.opcode != Opcode::kMove) ++result_.useful_issues;

    if (!op.defines_value()) return;
    const int lat = machine_.latency.of(op.opcode);
    for (int e : graph_.out_edges(v)) {
      const DepEdge& edge = graph_.edge(e);
      if (!edge.is_value_flow()) continue;
      // Only instances whose consumer exists are pushed... except live-outs
      // drain naturally; hardware pushes regardless, so we do too.
      PushEvent event;
      event.queue = queue_of_edge_[static_cast<std::size_t>(e)];
      event.entry = {v, j, value};
      if (lat == 0) {
        land(event, t, ports);
        if (!failure_.empty()) return;
      } else {
        pending_pushes_[t + lat].push_back(event);
      }
    }
  }

  const Loop& loop_;
  const Ddg& graph_;
  const MachineConfig& machine_;
  const Schedule& schedule_;
  const QueueAllocation& allocation_;
  const long long trip_;
  const SimOptions options_;

  SimResult result_;
  std::string failure_;
  long long t_min_ = 0;
  long long t_max_ = 0;
  std::vector<std::vector<int>> edge_of_arg_;
  std::vector<int> queue_of_edge_;
  std::vector<std::deque<QueueEntry>> queues_;
  std::vector<int> depth_limit_;
  std::map<long long, std::vector<PushEvent>> pending_pushes_;
  std::map<long long, std::vector<std::pair<int, long long>>> issues_;
  struct DrainPop {
    int queue;
    int producer;
    long long iteration;
  };
  std::map<long long, std::vector<DrainPop>> drain_pops_;
};

}  // namespace

SimResult simulate(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                   const Schedule& schedule, const QueueAllocation& allocation, long long trip,
                   const SimOptions& options) {
  Simulator simulator(loop, graph, machine, schedule, allocation, trip, options);
  return simulator.run();
}

CheckedSim simulate_and_check(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                              const Schedule& schedule, const QueueAllocation& allocation,
                              long long trip, const SimOptions& options) {
  CheckedSim out;
  out.sim = simulate(loop, graph, machine, schedule, allocation, trip, options);
  if (!out.sim.ok) {
    out.failure = cat("simulation failed: ", out.sim.failure);
    return out;
  }
  const InterpResult reference = interpret(loop, trip, options.seed);
  if (!(reference.memory == out.sim.memory)) {
    const auto [array, index] = reference.memory.first_difference(out.sim.memory);
    out.failure = cat("memory mismatch vs reference at array ", array, " index ", index);
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace qvliw
