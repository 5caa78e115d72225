#include "serve/server_pool.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "arch/fastpath.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace nsflow::serve {

bool SameServingDesign(const AcceleratorDesign& a,
                       const AcceleratorDesign& b) {
  // Every field the cycle model reads must participate: the memory sizing
  // (cache capacity gates output-spill AXI traffic) as much as the array.
  return a.array.height == b.array.height && a.array.width == b.array.width &&
         a.array.count == b.array.count &&
         a.sequential_mode == b.sequential_mode && a.nl == b.nl &&
         a.nv == b.nv && a.simd_width == b.simd_width &&
         a.clock_hz == b.clock_hz && a.dram_bandwidth == b.dram_bandwidth &&
         a.memory.mem_a1_bytes == b.memory.mem_a1_bytes &&
         a.memory.mem_a2_bytes == b.memory.mem_a2_bytes &&
         a.memory.mem_b_bytes == b.memory.mem_b_bytes &&
         a.memory.mem_c_bytes == b.memory.mem_c_bytes &&
         a.memory.cache_bytes == b.memory.cache_bytes;
}

PoolDeltaCounts CountDeltas(const std::vector<PoolDelta>& deltas) {
  PoolDeltaCounts counts;
  for (const PoolDelta& delta : deltas) {
    switch (delta.kind) {
      case PoolDeltaKind::kAddReplica: ++counts.adds; break;
      case PoolDeltaKind::kRetireReplica: ++counts.retires; break;
      case PoolDeltaKind::kRefitReplica: ++counts.refits; break;
      case PoolDeltaKind::kSetBatchCap: ++counts.batch_caps; break;
    }
  }
  return counts;
}

AcceleratorDesign RefitDesign(AcceleratorDesign design,
                              const DataflowGraph& dfg) {
  // The allocation policy (whole array per kernel in sequential/all-NN
  // execution, the static Phase I split otherwise) lives in
  // arch::RefitAlloc — the same source the fast-path latency cache reads —
  // so a deployed refit replica and its cached estimate cannot diverge.
  const arch::LoopAlloc alloc = arch::RefitAlloc(design, dfg);
  design.nl.assign(dfg.layers().size(), alloc.uniform_nl);
  design.nv.assign(dfg.vsa_ops().size(), alloc.uniform_nv);
  return design;
}

ServerPool::ServerPool(std::vector<AcceleratorDesign> designs,
                       const DataflowGraph& dfg)
    : dfgs_({&dfg}) {
  std::vector<ReplicaSpec> specs;
  specs.reserve(designs.size());
  for (auto& design : designs) {
    // The single-workload constructor's designs are, by contract, produced
    // for `dfg` (the compiled design or its pareto frontier): keep their
    // tuned allocations.
    specs.push_back(ReplicaSpec{std::move(design), {}, 0});
  }
  Init(specs);
}

ServerPool::ServerPool(const std::vector<ReplicaSpec>& specs,
                       std::vector<const DataflowGraph*> workload_dfgs, int)
    : dfgs_(std::move(workload_dfgs)) {
  NSF_CHECK_MSG(!dfgs_.empty(), "a pool needs at least one workload");
  for (const DataflowGraph* dfg : dfgs_) {
    NSF_CHECK_MSG(dfg != nullptr, "workload dataflow graph is null");
  }
  Init(specs);
}

void ServerPool::Init(const std::vector<ReplicaSpec>& specs) {
  NSF_CHECK_MSG(!specs.empty(), "a pool needs at least one replica");
  kind_.reserve(specs.size());
  replicas_.reserve(specs.size());
  designs_.reserve(specs.size());
  serves_.reserve(specs.size());
  free_at_.reserve(specs.size());
  free_by_workload_.resize(dfgs_.size());
  free_by_node_.resize(dfgs_.size());
  for (const ReplicaSpec& spec : specs) {
    AppendReplica(spec, /*ready_s=*/0.0);
  }

  for (const FreeSet& capable : free_by_workload_) {
    NSF_CHECK_MSG(!capable.empty(), "workload has no replica able to serve it");
  }
}

void ServerPool::FreeSet::Place(std::size_t i, Entry entry) {
  heap_[i] = entry;
  pos_[static_cast<std::size_t>(entry.second)] = static_cast<int>(i);
}

void ServerPool::FreeSet::SiftUp(std::size_t i, Entry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(entry < heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, entry);
}

void ServerPool::FreeSet::SiftDown(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      ++child;
    }
    if (!(heap_[child] < entry)) {
      break;
    }
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, entry);
}

void ServerPool::FreeSet::Insert(Entry entry) {
  const auto r = static_cast<std::size_t>(entry.second);
  if (pos_.size() <= r) {
    pos_.resize(r + 1, -1);
  }
  heap_.push_back(entry);
  SiftUp(heap_.size() - 1, entry);
}

void ServerPool::FreeSet::Erase(int replica) {
  const auto r = static_cast<std::size_t>(replica);
  if (r >= pos_.size() || pos_[r] < 0) {
    return;
  }
  const auto i = static_cast<std::size_t>(pos_[r]);
  pos_[r] = -1;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;  // The erased entry was the last slot.
  }
  // The last entry fills the hole: it may belong above it (it came from
  // another subtree) or below it.
  if (i > 0 && last < heap_[(i - 1) / 2]) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

template <typename Change>
void ServerPool::Reindex(int replica, Change&& change) {
  IndexReplica(replica, /*insert=*/false);
  change();
  IndexReplica(replica, /*insert=*/true);
}

void ServerPool::IndexReplica(int replica, bool insert) {
  const auto r = static_cast<std::size_t>(replica);
  if (draining_[r]) {
    return;  // Draining replicas take no new work: never selectable.
  }
  const std::pair<double, int> key{free_at_[r], replica};
  const auto n = static_cast<std::size_t>(node_of_[r]);
  for (std::size_t w = 0; w < dfgs_.size(); ++w) {
    if (!serves_[r][w]) {
      continue;
    }
    std::vector<FreeSet>& by_node = free_by_node_[w];
    if (by_node.size() <= n) {
      by_node.resize(n + 1);
    }
    if (insert) {
      free_by_workload_[w].Insert(key);
      by_node[n].Insert(key);
    } else {
      free_by_workload_[w].Erase(replica);
      by_node[n].Erase(replica);
    }
  }
}

int ServerPool::KindFor(const ReplicaSpec& spec) {
  // Kind dedup is a cache-sharing optimization, so a kind merges only
  // replicas that agree on both the design *and* its provenance — two
  // tenants' DSE winners converging on identical hardware still get
  // separate kinds, because their tuned allocations mean different
  // things. Ids aliasing one compiled graph (registry compile-cache
  // hit) count as the same provenance.
  for (std::size_t k = 0; k < distinct_designs_.size(); ++k) {
    const WorkloadId prev = kind_tuned_for_[k];
    if (SameServingDesign(distinct_designs_[k], spec.design) &&
        (prev == spec.tuned_for || IsTunedFor(spec.tuned_for, prev))) {
      return static_cast<int>(k);
    }
  }
  distinct_designs_.push_back(spec.design);
  kind_tuned_for_.push_back(spec.tuned_for);
  latencies_.resize(distinct_designs_.size() * dfgs_.size());
  return static_cast<int>(distinct_designs_.size()) - 1;
}

std::vector<bool> ServerPool::BuildServes(const ReplicaSpec& spec) const {
  NSF_CHECK_MSG(spec.tuned_for == kTunedForNone ||
                    (spec.tuned_for >= 0 && spec.tuned_for < workloads()),
                "tuned_for must name a pool workload or kTunedForNone");
  // Empty workload set = deployed for every workload the pool knows.
  std::vector<bool> serves(dfgs_.size(), spec.workloads.empty());
  for (const WorkloadId w : spec.workloads) {
    NSF_CHECK_MSG(w >= 0 && w < workloads(),
                  "replica declares an unknown workload id");
    serves[static_cast<std::size_t>(w)] = true;
  }
  return serves;
}

std::unique_ptr<runtime::Accelerator> ServerPool::InstantiateReplica(
    const ReplicaSpec& spec, const std::vector<bool>& serves) const {
  // The long-lived replica accelerator is instantiated against the first
  // workload it serves; cycle-model evaluation goes through the
  // allocation-free fast path (BatchSeconds), so this instance only
  // backs the `replica()` accessor and functional cross-checks.
  std::size_t first = 0;
  while (first < dfgs_.size() && !serves[first]) {
    ++first;
  }
  NSF_CHECK_MSG(first < dfgs_.size(), "replica serves no workload at all");
  const bool tuned =
      IsTunedFor(spec.tuned_for, static_cast<WorkloadId>(first));
  return std::make_unique<runtime::Accelerator>(
      tuned ? spec.design : RefitDesign(spec.design, *dfgs_[first]),
      *dfgs_[first]);
}

void ServerPool::AppendReplica(const ReplicaSpec& spec, double ready_s) {
  std::vector<bool> serves = BuildServes(spec);
  designs_.push_back(spec.design);
  kind_.push_back(KindFor(spec));
  replicas_.push_back(InstantiateReplica(spec, serves));
  serves_.push_back(std::move(serves));
  free_at_.push_back(ready_s);
  draining_.push_back(false);
  added_at_.push_back(ready_s);
  retired_at_.push_back(std::numeric_limits<double>::infinity());
  node_of_.push_back(0);
  dead_.emplace_back();
  derates_.emplace_back();
  IndexReplica(size() - 1, /*insert=*/true);
  census_ = Census{};
}

bool ServerPool::IsTunedFor(WorkloadId tuned_for, WorkloadId workload) const {
  if (tuned_for == kTunedForNone || workload == kTunedForNone) {
    return false;
  }
  // Same id, or two registry names aliasing one compiled graph (the
  // registry's compile cache hands both the same DataflowGraph instance).
  return tuned_for == workload ||
         dfgs_[static_cast<std::size_t>(tuned_for)] ==
             dfgs_[static_cast<std::size_t>(workload)];
}

const AcceleratorDesign& ServerPool::design(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return designs_[static_cast<std::size_t>(replica)];
}

runtime::Accelerator& ServerPool::replica(int index) {
  NSF_CHECK(index >= 0 && index < size());
  return *replicas_[static_cast<std::size_t>(index)];
}

bool ServerPool::CanServe(int replica, WorkloadId workload) const {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK(workload >= 0 && workload < workloads());
  return serves_[static_cast<std::size_t>(replica)]
                [static_cast<std::size_t>(workload)];
}

double ServerPool::BatchSeconds(int replica, WorkloadId workload,
                                std::int64_t batch_size) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK(workload >= 0 && workload < workloads());
  NSF_CHECK_MSG(batch_size >= 1, "batch size must be positive");
  const int kind = kind_[static_cast<std::size_t>(replica)];
  LatencySlot& slot = Slot(kind, workload);
  const auto b = static_cast<std::size_t>(batch_size);
  if (b <= slot.seconds.size() && slot.seconds[b - 1] != 0.0) {
    ++cache_hits_;
    return slot.seconds[b - 1];
  }
  ++cache_misses_;
  // Timing-only fast path: the cycle model is a pure function of (design,
  // dfg, batch size), so no scratch Accelerator and no tensor data are
  // needed, and each batch size derives from the slot's model in O(1).
  const arch::ServingModel& model = ModelFor(kind, workload);
  if (slot.seconds.size() < b) {
    slot.seconds.resize(b, 0.0);
  }
  slot.seconds[b - 1] = model.BatchSeconds(static_cast<int>(batch_size));
  return slot.seconds[b - 1];
}

void ServerPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    cache_hit_counter_ = nullptr;
    cache_miss_counter_ = nullptr;
    return;
  }
  cache_hit_counter_ = registry->GetCounter("pool.cache_hits");
  cache_miss_counter_ = registry->GetCounter("pool.cache_misses");
  PublishCacheMetrics();
}

void ServerPool::PublishCacheMetrics() {
  if (cache_hit_counter_ == nullptr || cache_miss_counter_ == nullptr) {
    return;
  }
  const std::int64_t hits = cache_hits();
  const std::int64_t misses = cache_misses();
  cache_hit_counter_->Increment(hits - published_hits_);
  cache_miss_counter_->Increment(misses - published_misses_);
  published_hits_ = hits;
  published_misses_ = misses;
}

ServerPool::LatencySlot& ServerPool::Slot(int kind, WorkloadId workload) {
  return latencies_[static_cast<std::size_t>(kind) * dfgs_.size() +
                    static_cast<std::size_t>(workload)];
}

const arch::ServingModel& ServerPool::ModelFor(int kind,
                                               WorkloadId workload) {
  LatencySlot& slot = Slot(kind, workload);
  if (!slot.built) {
    // Provenance decides the allocation: the workload the design was DSE'd
    // for keeps its Phase II tuned nl/nv, every other tenant gets the
    // RefitDesign schedule.
    slot.model = arch::BuildServingModel(
        distinct_designs_[static_cast<std::size_t>(kind)],
        *dfgs_[static_cast<std::size_t>(workload)],
        IsTunedFor(kind_tuned_for_[static_cast<std::size_t>(kind)], workload));
    slot.built = true;
  }
  return slot.model;
}

void ServerPool::WarmBatchSizes(std::int64_t max_batch) {
  std::vector<WorkloadId> all;
  for (int w = 0; w < workloads(); ++w) {
    all.push_back(w);
  }
  WarmBatchSizes(max_batch, all);
}

void ServerPool::WarmBatchSizes(std::int64_t max_batch,
                                const std::vector<WorkloadId>& only) {
  NSF_CHECK_MSG(max_batch >= 1, "max_batch must be positive");
  // A (kind, workload) slot is warmed when some replica of that kind is
  // deployed for the workload.
  std::vector<bool> capable(latencies_.size(), false);
  for (int r = 0; r < size(); ++r) {
    const auto r_index = static_cast<std::size_t>(r);
    for (std::size_t w = 0; w < dfgs_.size(); ++w) {
      if (serves_[r_index][w]) {
        capable[static_cast<std::size_t>(kind_[r_index]) * dfgs_.size() + w] =
            true;
      }
    }
  }
  const auto cap = static_cast<std::size_t>(max_batch);
  for (const WorkloadId w : only) {
    NSF_CHECK(w >= 0 && w < workloads());
    for (int k = 0; k < static_cast<int>(distinct_designs_.size()); ++k) {
      if (!capable[static_cast<std::size_t>(k) * dfgs_.size() +
                   static_cast<std::size_t>(w)]) {
        continue;
      }
      const arch::ServingModel& model = ModelFor(k, w);
      std::vector<double>& seconds = Slot(k, w).seconds;
      if (seconds.size() < cap) {
        seconds.resize(cap, 0.0);
      }
      for (std::size_t b = 1; b <= cap; ++b) {
        seconds[b - 1] = model.BatchSeconds(static_cast<int>(b));
      }
    }
  }
}

const ServerPool::FreeSet* ServerPool::Selectable(WorkloadId workload,
                                                  int node) const {
  NSF_CHECK(workload >= 0 && workload < workloads());
  const auto w = static_cast<std::size_t>(workload);
  if (node < 0) {
    return &free_by_workload_[w];
  }
  const std::vector<FreeSet>& by_node = free_by_node_[w];
  return static_cast<std::size_t>(node) < by_node.size()
             ? &by_node[static_cast<std::size_t>(node)]
             : nullptr;
}

double ServerPool::EarliestFree(WorkloadId workload, int node) const {
  const FreeSet* selectable = Selectable(workload, node);
  return selectable == nullptr || selectable->empty()
             ? std::numeric_limits<double>::infinity()
             : selectable->top().first;
}

void ServerPool::SetReplicaNode(int replica, int node) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK_MSG(node >= 0, "cluster node must be non-negative");
  Reindex(replica,
          [&] { node_of_[static_cast<std::size_t>(replica)] = node; });
}

int ServerPool::NodeOf(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return node_of_[static_cast<std::size_t>(replica)];
}

bool ServerPool::NodeCanServe(WorkloadId workload, int node) const {
  const FreeSet* selectable = Selectable(workload, node);
  return selectable != nullptr && !selectable->empty();
}

void ServerPool::ResetSchedule() {
  // Replicas warm-added mid-run stay unavailable before their ready time.
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    Reindex(r, [&] { free_at_[i] = added_at_[i]; });
  }
  dispatched_batches_ = 0;
}

int ServerPool::AddReplica(const ReplicaSpec& spec, double ready_s) {
  NSF_CHECK_MSG(ready_s >= 0.0, "replica ready time must be non-negative");
  AppendReplica(spec, ready_s);
  return size() - 1;
}

void ServerPool::CheckNoOrphans(int replica,
                                const std::vector<bool>* keep) const {
  const auto rs = static_cast<std::size_t>(replica);
  for (std::size_t w = 0; w < dfgs_.size(); ++w) {
    if (!serves_[rs][w] || (keep != nullptr && (*keep)[w])) {
      continue;  // Not losing this workload's coverage.
    }
    // Callers only pass non-draining replicas, so `replica` itself is one
    // of the capable set's members: coverage needs a second one.
    NSF_CHECK_MSG(free_by_workload_[w].size() > 1,
                  "reconfiguration would leave a workload with no replica "
                  "able to serve it");
  }
}

void ServerPool::DrainReplica(int replica, double now_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(!draining_[r], "replica is already draining");
  CheckNoOrphans(replica, nullptr);
  Reindex(replica, [&] { draining_[r] = true; });
  // In-flight work finishes; an idle replica retires at the decision time.
  retired_at_[r] = std::max(now_s, free_at_[r]);
  census_ = Census{};
}

int ServerPool::DrainAll(double now_s) {
  int drained = 0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (draining_[i]) {
      continue;  // Already drained (autoscaler retire or a repeat call).
    }
    Reindex(r, [&] { draining_[i] = true; });
    // In-flight work finishes; an idle replica retires at the drain point.
    retired_at_[i] = std::max(now_s, free_at_[i]);
    ++drained;
  }
  census_ = Census{};
  return drained;
}

void ServerPool::RefitInPlace(int replica, const ReplicaSpec& spec,
                              double ready_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(!draining_[r], "cannot refit a draining replica");
  std::vector<bool> serves = BuildServes(spec);
  CheckNoOrphans(replica, &serves);

  designs_[r] = spec.design;
  kind_[r] = KindFor(spec);
  replicas_[r] = InstantiateReplica(spec, serves);
  Reindex(replica, [&] {
    serves_[r] = std::move(serves);
    // The in-flight batch (if any) finishes on the old deployment before
    // the refit replica comes up.
    free_at_[r] = std::max(free_at_[r], ready_s);
  });
}

bool ServerPool::draining(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return draining_[static_cast<std::size_t>(replica)];
}

double ServerPool::AddedAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return added_at_[static_cast<std::size_t>(replica)];
}

double ServerPool::RetiredAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return retired_at_[static_cast<std::size_t>(replica)];
}

const ServerPool::Census& ServerPool::CensusAt(double t) const {
  if (census_.from_s <= t && t < census_.until_s) {
    return census_;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Census census{-kInf, kInf, 0, 0};
  // Every comparison below is `instant <= t` or `t < instant` against one
  // of these instants, so none flips before the next one or after the
  // previous one: the nearest two bound the window.
  const auto bound = [&](double instant) {
    if (instant <= t) {
      census.from_s = std::max(census.from_s, instant);
    } else {
      census.until_s = std::min(census.until_s, instant);
    }
  };
  for (std::size_t i = 0; i < added_at_.size(); ++i) {
    bound(added_at_[i]);
    bound(retired_at_[i]);
    bool failed = false;
    for (const DeadSpan& span : dead_[i]) {
      bound(span.fail_s);
      bound(span.recover_s);
      failed = failed || (t >= span.fail_s && t < span.recover_s);
    }
    if (added_at_[i] <= t && t < retired_at_[i]) {
      ++(failed ? census.dark : census.live);
    }
  }
  census_ = census;
  return census_;
}

int ServerPool::ActiveReplicas(double t) const { return CensusAt(t).live; }

double ServerPool::LiveFraction(double t) const {
  const Census& census = CensusAt(t);
  const int provisioned = census.live + census.dark;
  return provisioned > 0 ? static_cast<double>(census.live) /
                               static_cast<double>(provisioned)
                         : 1.0;
}

double ServerPool::ReplicaSeconds(double horizon_s) const {
  double total = 0.0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double from = std::min(added_at_[i], horizon_s);
    const double to = std::min(retired_at_[i], horizon_s);
    total += std::max(0.0, to - from);
    // Dead time is not billed: a dark replica consumes no FPGA seconds
    // (docs/AUTOSCALING.md — the adversity overhead gate compares the
    // surviving fleet plus replacements against the fault-free run).
    for (const DeadSpan& span : dead_[i]) {
      const double dead_from = std::max(span.fail_s, from);
      const double dead_to = std::min(span.recover_s, to);
      total -= std::max(0.0, dead_to - dead_from);
    }
  }
  return total;
}

void ServerPool::FailReplica(int replica, double fail_s, double recover_s,
                             double warmup_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(recover_s > fail_s, "recovery must follow the failure");
  NSF_CHECK_MSG(warmup_s >= 0.0, "warmup must be non-negative");
  NSF_CHECK_MSG(!draining_[r], "cannot fail a draining replica");
  NSF_CHECK_MSG(!Failed(replica, fail_s), "replica is already dark");
  NSF_CHECK_MSG(dead_[r].empty() || dead_[r].back().up_s <= fail_s,
                "failure overlaps the previous outage's warm-up");
  // Never inject an unservable topology: every workload this replica
  // serves must survive on another live replica.
  for (std::size_t w = 0; w < dfgs_.size(); ++w) {
    if (!serves_[r][w]) {
      continue;
    }
    bool covered = false;
    for (int other = 0; other < size() && !covered; ++other) {
      covered = other != replica &&
                !draining_[static_cast<std::size_t>(other)] &&
                !Failed(other, fail_s) &&
                serves_[static_cast<std::size_t>(other)][w];
    }
    NSF_CHECK_MSG(covered,
                  "replica failure would leave a workload with no live "
                  "replica able to serve it");
  }
  dead_[r].push_back(DeadSpan{fail_s, recover_s, recover_s + warmup_s});
  census_ = Census{};
  // The schedule jumps past the outage: dispatch's argmin then routes
  // around the dark replica (or correctly books post-recovery work on it
  // when every survivor is busier).
  Reindex(replica,
          [&] { free_at_[r] = std::max(free_at_[r], recover_s + warmup_s); });
}

void ServerPool::SetDerate(int replica, double factor, double from_s,
                           double until_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK_MSG(factor >= 1.0, "derate factor must be >= 1");
  NSF_CHECK_MSG(until_s > from_s, "derate window must be non-empty");
  derates_[static_cast<std::size_t>(replica)].push_back(
      DerateSpan{from_s, until_s, factor});
  has_derates_ = true;
}

bool ServerPool::Failed(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DeadSpan& span : dead_[static_cast<std::size_t>(replica)]) {
    if (t >= span.fail_s && t < span.recover_s) {
      return true;
    }
  }
  return false;
}

double ServerPool::DerateAt(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DerateSpan& span : derates_[static_cast<std::size_t>(replica)]) {
    if (t >= span.from_s && t < span.until_s) {
      return span.factor;
    }
  }
  return 1.0;
}

ServerPool::ReplicaHealth ServerPool::Health(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DeadSpan& span : dead_[static_cast<std::size_t>(replica)]) {
    if (t >= span.fail_s && t < span.recover_s) {
      return ReplicaHealth::kFailed;
    }
    if (t >= span.recover_s && t < span.up_s) {
      return ReplicaHealth::kRecovering;
    }
  }
  if (DerateAt(replica, t) > 1.0) {
    return ReplicaHealth::kDerated;
  }
  return ReplicaHealth::kUp;
}

double ServerPool::FreeAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return free_at_[static_cast<std::size_t>(replica)];
}

int ServerPool::ResolveFaultTarget(int requested, double t,
                                   bool for_failure) const {
  const auto eligible = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    if (draining_[i] || Failed(r, t) || added_at_[i] > t ||
        retired_at_[i] <= t) {
      return false;
    }
    if (for_failure) {
      // Losing this replica must orphan no workload (mirrors the
      // FailReplica check so a resolved target never throws there).
      for (std::size_t w = 0; w < dfgs_.size(); ++w) {
        if (!serves_[i][w]) {
          continue;
        }
        bool covered = false;
        for (int other = 0; other < size() && !covered; ++other) {
          covered = other != r &&
                    !draining_[static_cast<std::size_t>(other)] &&
                    !Failed(other, t) &&
                    serves_[static_cast<std::size_t>(other)][w];
        }
        if (!covered) {
          return false;
        }
      }
    }
    return true;
  };
  if (requested >= 0) {
    return requested < size() && eligible(requested) ? requested : -1;
  }
  int choice = -1;
  for (int r = 0; r < size(); ++r) {
    if (eligible(r) &&
        (choice < 0 || free_at_[static_cast<std::size_t>(r)] >
                           free_at_[static_cast<std::size_t>(choice)])) {
      choice = r;
    }
  }
  return choice;
}

DispatchRecord ServerPool::Dispatch(const Batch& batch, ServeStats* stats,
                                    std::int64_t queue_depth, int node,
                                    double record_tail_s) {
  NSF_CHECK_MSG(batch.size() > 0, "cannot dispatch an empty batch");
  // Earliest-available replica among those deployed for the batch's
  // workload, ties to the lowest id: the head of the workload's index.
  // Draining replicas take no new work — their in-flight batch is the last
  // thing they run. A non-negative `node` further narrows to that cluster
  // node's replicas.
  const FreeSet* selectable = Selectable(batch.workload, node);
  NSF_CHECK_MSG(selectable != nullptr && !selectable->empty(),
                "no replica serves the batch's workload");
  const int choice = selectable->top().second;
  DispatchRecord record;
  record.batch_index = dispatched_batches_++;
  record.replica = choice;
  record.workload = batch.workload;
  record.start_s =
      std::max(batch.formed_s, free_at_[static_cast<std::size_t>(choice)]);
  // A straggler's derate multiplies the modeled service time at the start
  // instant; the guard keeps derate-free runs bit-identical (no *1.0).
  double service = BatchSeconds(choice, batch.workload, batch.size());
  if (has_derates_) {
    service *= DerateAt(choice, record.start_s);
  }
  record.complete_s = record.start_s + service;
  record.size = batch.size();
  Reindex(choice, [&] {
    free_at_[static_cast<std::size_t>(choice)] = record.complete_s;
  });

  if (stats != nullptr) {
    stats->RecordBatch(batch.workload, batch.size(), queue_depth);
    stats->RecordReplicaBusy(choice, service);
    // The response-transfer tail extends only the client-observed latency
    // (the replica freed at complete_s; the interconnect carries the
    // reply). The != 0.0 guard keeps tail-free runs bit-identical — no
    // `+ 0.0` is ever applied.
    const double observed = record_tail_s != 0.0
                                ? record.complete_s + record_tail_s
                                : record.complete_s;
    for (const auto& request : batch.requests) {
      stats->RecordRequest(batch.workload, request.arrival_s, observed);
    }
  }
  return record;
}

std::vector<DispatchRecord> ServerPool::Dispatch(
    const std::vector<Batch>& batches, ServeStats* stats) {
  ResetSchedule();

  // Backlog accounting: arrivals that have entered the system but whose
  // batch has not yet started on a replica, sampled at each batch start.
  std::vector<double> arrivals;
  for (const auto& batch : batches) {
    for (const auto& request : batch.requests) {
      arrivals.push_back(request.arrival_s);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<DispatchRecord> records;
  records.reserve(batches.size());
  std::int64_t started = 0;  // Requests whose batch already started.
  for (const Batch& batch : batches) {
    // Start time is what Dispatch will compute: max(formed, earliest free
    // among capable replicas).
    const double start =
        std::max(batch.formed_s, EarliestFree(batch.workload));
    const auto arrived = static_cast<std::int64_t>(
        std::upper_bound(arrivals.begin(), arrivals.end(), start) -
        arrivals.begin());
    records.push_back(Dispatch(batch, stats, arrived - started));
    started += batch.size();
  }
  return records;
}

}  // namespace nsflow::serve
