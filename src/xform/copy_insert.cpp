#include "xform/copy_insert.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/memdep.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

struct Use {
  std::int32_t op;
  std::int32_t arg;
};

/// Flat copy plan.  Per-def use lists and copy-tree parents live in shared
/// arenas addressed by CSR offsets; reroute targets are indexed by the
/// consuming operand slot (per-op arg offsets); and because copy counts are
/// analytic in the fan-out, the rewritten loop's layout (op_map and total
/// size) is known before emission.
class Planner {
 public:
  Planner(const Loop& loop, CopyTreeShape shape) : loop_(loop), shape_(shape) {}

  void plan() {
    const int n = loop_.op_count();
    const std::size_t nn = static_cast<std::size_t>(n);

    arg_off_.assign(nn + 1, 0);
    use_off_.assign(nn + 1, 0);
    for (int u = 0; u < n; ++u) {
      const Op& op = loop_.ops[static_cast<std::size_t>(u)];
      arg_off_[static_cast<std::size_t>(u) + 1] =
          arg_off_[static_cast<std::size_t>(u)] + static_cast<std::int32_t>(op.args.size());
      for (const Operand& arg : op.args) {
        if (arg.is_value()) ++use_off_[static_cast<std::size_t>(arg.value_op) + 1];
      }
    }
    for (std::size_t v = 0; v < nn; ++v) use_off_[v + 1] += use_off_[v];
    uses_.resize(static_cast<std::size_t>(use_off_[nn]));
    reroute_def_.assign(static_cast<std::size_t>(arg_off_[nn]), -1);
    reroute_node_.assign(static_cast<std::size_t>(arg_off_[nn]), -1);

    // Use lists fill in (consumer op, operand slot) order via counting sort.
    std::vector<std::int32_t> cursor(use_off_.begin(), use_off_.end() - 1);
    for (int u = 0; u < n; ++u) {
      const Op& op = loop_.ops[static_cast<std::size_t>(u)];
      for (std::size_t a = 0; a < op.args.size(); ++a) {
        if (!op.args[a].is_value()) continue;
        uses_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(op.args[a].value_op)]++)] = {
            u, static_cast<std::int32_t>(a)};
      }
    }

    // Copy counts: capacity-c producer with fan > c uses costs fan - 1
    // copies for c == 1 (one root + a capacity-2 tree) and fan - 2 for
    // c == 2.  With them known up front, op_map is pure arithmetic:
    // originals are emitted in order, each followed by its tree.
    tree_off_.assign(nn + 1, 0);
    tree_len_.assign(nn, 0);
    op_map_.resize(nn);
    for (int def = 0; def < n; ++def) {
      const std::size_t d = static_cast<std::size_t>(def);
      const int capacity = loop_.ops[d].opcode == Opcode::kCopy ? 2 : 1;
      const int fan = use_off_[d + 1] - use_off_[d];
      const int copies = fan <= capacity ? 0 : (capacity == 1 ? fan - 1 : fan - 2);
      op_map_[d] = def + tree_off_[d];
      tree_off_[d + 1] = tree_off_[d] + copies;
    }
    parent_.resize(static_cast<std::size_t>(tree_off_[nn]));

    for (int def = 0; def < n; ++def) {
      const std::size_t d = static_cast<std::size_t>(def);
      const int capacity = loop_.ops[d].opcode == Opcode::kCopy ? 2 : 1;
      feed(def, -1, capacity, uses_.data() + use_off_[d], use_off_[d + 1] - use_off_[d]);
      QVLIW_ASSERT(tree_len_[d] == tree_off_[d + 1] - tree_off_[d],
                   "copy planner: analytic tree size mismatch");
    }
  }

  [[nodiscard]] int total_copies() const { return tree_off_.back(); }
  [[nodiscard]] int tree_size(int def) const {
    return tree_off_[static_cast<std::size_t>(def) + 1] - tree_off_[static_cast<std::size_t>(def)];
  }
  [[nodiscard]] int parent_of(int def, int node) const {
    return parent_[static_cast<std::size_t>(tree_off_[static_cast<std::size_t>(def)] + node)];
  }
  /// Rewritten index of original `def` (its tree occupies the next
  /// tree_size(def) slots).
  [[nodiscard]] int mapped(int def) const { return op_map_[static_cast<std::size_t>(def)]; }

  /// Source feeding a use slot: (def, node) with node == -1 for the
  /// producer itself.
  [[nodiscard]] std::pair<int, int> source_of(int use_op, int use_arg) const {
    const std::size_t slot =
        static_cast<std::size_t>(arg_off_[static_cast<std::size_t>(use_op)] + use_arg);
    QVLIW_ASSERT(reroute_def_[slot] >= 0, "copy planner missed a use");
    return {reroute_def_[slot], reroute_node_[slot]};
  }

 private:
  int alloc_node(int def, int parent) {
    const std::size_t d = static_cast<std::size_t>(def);
    const int node = tree_len_[d]++;
    parent_[static_cast<std::size_t>(tree_off_[d] + node)] = parent;
    return node;
  }

  void set_reroute(const Use& use, int def, int node) {
    const std::size_t slot =
        static_cast<std::size_t>(arg_off_[static_cast<std::size_t>(use.op)] + use.arg);
    reroute_def_[slot] = def;
    reroute_node_[slot] = node;
  }

  void feed(int def, int source_node, int capacity, const Use* uses, int count) {
    if (count <= capacity) {
      for (int i = 0; i < count; ++i) set_reroute(uses[i], def, source_node);
      return;
    }
    if (capacity == 1) {
      // Producer feeds a single root copy; the tree fans out below it.
      feed(def, alloc_node(def, source_node), 2, uses, count);
      return;
    }
    QVLIW_ASSERT(capacity == 2, "unexpected fan-out capacity");
    if (shape_ == CopyTreeShape::kChain) {
      // One direct consumer, one copy relaying the rest.
      set_reroute(uses[0], def, source_node);
      feed(def, alloc_node(def, source_node), 2, uses + 1, count - 1);
      return;
    }
    // Balanced: split into two halves; singleton halves attach directly.
    const int half = count - count / 2;  // left gets the extra
    const struct {
      const Use* ptr;
      int size;
    } groups[2] = {{uses, half}, {uses + half, count - half}};
    for (const auto& group : groups) {
      if (group.size == 1) {
        set_reroute(group.ptr[0], def, source_node);
      } else {
        feed(def, alloc_node(def, source_node), 2, group.ptr, group.size);
      }
    }
  }

  const Loop& loop_;
  CopyTreeShape shape_;
  std::vector<std::int32_t> arg_off_;   // per-op operand-slot offsets
  std::vector<std::int32_t> use_off_;   // CSR offsets into uses_ by def
  std::vector<Use> uses_;               // consumer slots, (op, arg) order
  std::vector<std::int32_t> tree_off_;  // CSR offsets into parent_ by def
  std::vector<std::int32_t> tree_len_;  // nodes allocated so far per def
  std::vector<std::int32_t> parent_;    // tree arena; -1 = fed by producer
  std::vector<std::int32_t> op_map_;    // def -> rewritten index
  std::vector<std::int32_t> reroute_def_;   // by operand slot; -1 = non-value
  std::vector<std::int32_t> reroute_node_;  // node within reroute_def_'s tree
};

/// Emits the rewritten loop in one pass: originals in order, each followed
/// by its copy tree (parents precede children, so emission order keeps
/// distance-0 operands after their definitions).  Rewritten indices are
/// arithmetic — mapped(def) for originals, mapped(def) + 1 + node for tree
/// nodes — so no per-node index vectors are needed.
CopyInsertResult materialize(const Loop& src, const Planner& planner) {
  CopyInsertResult result;
  result.loop.name = src.name;
  result.loop.stride = src.stride;
  result.loop.trip_hint = src.trip_hint;
  result.loop.invariants = src.invariants;
  result.loop.arrays = src.arrays;
  result.copies_added = planner.total_copies();
  result.loop.ops.reserve(static_cast<std::size_t>(src.op_count() + result.copies_added));
  result.op_map.resize(static_cast<std::size_t>(src.op_count()));

  // A copy is named <name>_c<k>, or <name>_c<k>_<n> for the first n that
  // is free.  Only a source name can take a candidate: two candidates
  // differ, because the text after the last "_c" is all digits and source
  // names are unique, and no fallback equals a candidate, because the text
  // after its last "_" is all digits.  So candidates are checked against
  // the sorted source names and the fallbacks made so far, not against
  // every name made.
  std::vector<std::string_view> source_names;
  std::vector<std::string> fallbacks;
  if (result.copies_added > 0) {
    source_names.reserve(static_cast<std::size_t>(src.op_count()));
    for (const Op& op : src.ops) {
      if (op.defines_value()) source_names.push_back(op.name);
    }
    std::sort(source_names.begin(), source_names.end());
  }
  auto taken = [&](std::string_view name) {
    return std::binary_search(source_names.begin(), source_names.end(), name) ||
           std::find(fallbacks.begin(), fallbacks.end(), name) != fallbacks.end();
  };
  auto fresh_name = [&](std::string base) {
    if (!taken(base)) return base;
    for (int counter = 0;; ++counter) {
      std::string name = cat(base, "_", counter);
      if (!taken(name)) {
        fallbacks.push_back(name);
        return name;
      }
    }
  };

  for (int def = 0; def < src.op_count(); ++def) {
    const std::size_t d = static_cast<std::size_t>(def);
    const int base = planner.mapped(def);
    result.op_map[d] = result.loop.add_op(src.ops[d]);
    QVLIW_ASSERT(result.op_map[d] == base, "copy planner: analytic op_map mismatch");
    const int tree = planner.tree_size(def);
    for (int node = 0; node < tree; ++node) {
      Op copy;
      copy.opcode = Opcode::kCopy;
      copy.name = fresh_name(cat(src.ops[d].name, "_c", node));
      const int parent = planner.parent_of(def, node);
      const int source = parent < 0 ? base : base + 1 + parent;
      copy.args.push_back(Operand::value(source, 0));
      result.loop.add_op(std::move(copy));
    }
  }

  // Rewrite value operands of the original ops to their assigned sources.
  for (int u = 0; u < src.op_count(); ++u) {
    Op& op = result.loop.ops[static_cast<std::size_t>(result.op_map[static_cast<std::size_t>(u)])];
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      if (!op.args[a].is_value()) continue;
      const auto [def, node] = planner.source_of(u, static_cast<int>(a));
      const int base = planner.mapped(def);
      const int source = node < 0 ? base : base + 1 + node;
      op.args[a] = Operand::value(source, op.args[a].distance);
    }
  }

  QVLIW_ASSERT(fanout_legal(result.loop), "copy insertion left an over-fanned value");
  return result;
}

}  // namespace

CopyInsertResult insert_copies(const Loop& src, CopyTreeShape shape) {
  src.validate();
  Planner planner(src, shape);
  planner.plan();
  CopyInsertResult result = materialize(src, planner);
  result.loop.validate();
  return result;
}

CopyInsertWithGraph insert_copies_with_graph(const Loop& src, const LatencyModel& lat,
                                             CopyTreeShape shape) {
  src.validate();
  std::vector<MemDep> memdeps = memory_dependences(src);
  Planner planner(src, shape);
  planner.plan();

  CopyInsertWithGraph out;
  out.rewrite = materialize(src, planner);

  // Copies are never memory ops and op_map is monotonic, so the rewritten
  // loop's memory dependences are exactly the pre-copy ones with endpoints
  // mapped: same pair order, distances, and kinds as recomputing them.
  for (MemDep& dep : memdeps) {
    dep.src = out.rewrite.op_map[static_cast<std::size_t>(dep.src)];
    dep.dst = out.rewrite.op_map[static_cast<std::size_t>(dep.dst)];
  }
  out.graph = Ddg::build_from(out.rewrite.loop, lat, memdeps);
  return out;
}

bool fanout_legal(const Loop& loop) {
  std::vector<int> uses(static_cast<std::size_t>(loop.op_count()), 0);
  for (const Op& op : loop.ops) {
    for (const Operand& arg : op.args) {
      if (arg.is_value()) ++uses[static_cast<std::size_t>(arg.value_op)];
    }
  }
  for (int def = 0; def < loop.op_count(); ++def) {
    const int capacity = loop.ops[static_cast<std::size_t>(def)].opcode == Opcode::kCopy ? 2 : 1;
    if (uses[static_cast<std::size_t>(def)] > capacity) return false;
  }
  return true;
}

}  // namespace qvliw
