#include "qrf/rf_alloc.h"

#include <algorithm>

#include "qrf/lifetime.h"
#include "support/diagnostics.h"

namespace qvliw {

std::vector<RfLifetime> rf_lifetimes(const Loop& loop, const Ddg& graph, const LatencyModel& lat,
                                     const Schedule& schedule) {
  check(schedule.complete(), "rf_lifetimes: schedule incomplete");
  std::vector<RfLifetime> lifetimes;
  for (int op = 0; op < loop.op_count(); ++op) {
    if (!loop.ops[static_cast<std::size_t>(op)].defines_value()) continue;
    RfLifetime lt;
    lt.producer = op;
    lt.start = schedule.cycle(op) + lat.of(loop.ops[static_cast<std::size_t>(op)].opcode);
    lt.end = lt.start;  // a dead value still occupies its writeback cycle
    for (int e : graph.out_edges(op)) {
      const DepEdge& edge = graph.edge(e);
      if (!edge.is_value_flow()) continue;
      lt.end = std::max(lt.end, schedule.cycle(edge.dst) + schedule.ii() * edge.distance);
    }
    lifetimes.push_back(lt);
  }
  return lifetimes;
}

int register_requirement(const Loop& loop, const Ddg& graph, const LatencyModel& lat,
                         const Schedule& schedule) {
  const int ii = schedule.ii();
  std::vector<PhaseSpan> spans;
  for (const RfLifetime& lt : rf_lifetimes(loop, graph, lat, schedule)) {
    spans.push_back(phase_span(lt.start, lt.end, ii));
  }
  std::vector<int> opens;
  return peak_live(spans, ii, opens);
}

}  // namespace qvliw
