#include "rdma/endpoint.h"

#include <algorithm>
#include <array>
#include <thread>

namespace sphinx::rdma {

bool Endpoint::fault_gate(VerbKind kind, uint32_t mn, FaultSite site) {
  FaultInjector* injector = fabric_.fault_injector();
  if (injector == nullptr) return false;
  assert(!crashed_ && "a crashed endpoint issued a verb");
  for (uint32_t attempt = 0;; ++attempt) {
    const uint64_t seq = fault_verb_seq_++;
    const FaultDecision d = injector->on_verb(
        VerbDesc{kind, mn, fault_client_id_, seq, site});
    if (d.crash) {
      // The client dies *before* this verb reaches memory. Earlier verbs of
      // the same doorbell batch have already applied (a crash mid payload
      // write); whatever locks the client holds stay set until reclaimed.
      crashed_ = true;
      throw ClientCrashed{fault_client_id_, seq, site};
    }
    if (d.delay_ns > 0) clock_ns_ += d.delay_ns;
    if (d.stall_ns > 0) {
      // A stall widens real race windows too, not just virtual ones.
      clock_ns_ += d.stall_ns;
      std::this_thread::yield();
    }
    if (!d.reject) return d.fail_cas;
    // MN offline: the verb timed out without executing. Charge the
    // detection latency and reissue until the MN recovers; a sticky
    // offline past the cap degrades into a counted give-up (the verb then
    // executes) rather than a hang.
    clock_ns_ += fabric_.config().verb_timeout_ns;
    if (attempt >= kMaxOfflineRetries) {
      injector->note_offline_giveup();
      return d.fail_cas;
    }
    std::this_thread::yield();
  }
}

void DoorbellBatch::add_read(GlobalAddr addr, void* dst, size_t len) {
  Op op;
  op.type = OpType::kRead;
  op.addr = addr;
  op.dst = dst;
  op.len = len;
  ops_.push_back(op);
}

void DoorbellBatch::add_write(GlobalAddr addr, const void* src, size_t len,
                              FaultSite site) {
  Op op;
  op.type = OpType::kWrite;
  op.addr = addr;
  op.src = src;
  op.len = len;
  op.site = site;
  ops_.push_back(op);
}

size_t DoorbellBatch::add_cas(GlobalAddr addr, uint64_t expected,
                              uint64_t desired, FaultSite site) {
  Op op;
  op.type = OpType::kCas;
  op.addr = addr;
  op.expected = expected;
  op.desired = desired;
  op.len = 8;
  op.site = site;
  ops_.push_back(op);
  return ops_.size() - 1;
}

size_t DoorbellBatch::add_faa(GlobalAddr addr, uint64_t delta) {
  Op op;
  op.type = OpType::kFaa;
  op.addr = addr;
  op.desired = delta;
  op.len = 8;
  ops_.push_back(op);
  return ops_.size() - 1;
}

bool DoorbellBatch::cas_ok(size_t op_index) const {
  assert(op_index < ops_.size() && ops_[op_index].type == OpType::kCas);
  return ops_[op_index].cas_ok;
}

uint64_t DoorbellBatch::old_value(size_t op_index) const {
  assert(op_index < ops_.size());
  return ops_[op_index].old_value;
}

void DoorbellBatch::execute() {
  if (ops_.empty()) return;
  Endpoint& ep = ep_;
  Fabric& fabric = ep.fabric_;
  const NetworkConfig& cfg = fabric.config();

  // Memory effects apply in post order regardless of metering.
  for (Op& op : ops_) apply_one(op);

  if (!ep.metered_) return;

  // Statistics.
  uint64_t batch_bytes = 0;
  for (const Op& op : ops_) {
    ep.stats_.messages++;
    batch_bytes += op.len;
    switch (op.type) {
      case OpType::kRead:
        ep.stats_.reads++;
        ep.stats_.bytes_read += op.len;
        break;
      case OpType::kWrite:
        ep.stats_.writes++;
        ep.stats_.bytes_written += op.len;
        break;
      case OpType::kCas:
        ep.stats_.cas++;
        ep.stats_.bytes_written += 8;
        break;
      case OpType::kFaa:
        ep.stats_.faa++;
        ep.stats_.bytes_written += 8;
        break;
    }
  }
  ep.stats_.round_trips++;
  // One batch == one round trip, attributed whole to the endpoint's current
  // phase (these are the only two bumps matching charge_single's pair, so
  // per-phase sums equal round_trips / bytes_total exactly).
  ep.stats_.rtts_by_phase[static_cast<size_t>(ep.phase_)]++;
  ep.stats_.bytes_by_phase[static_cast<size_t>(ep.phase_)] += batch_bytes;

  // Unloaded latency: posting CPU + CN NIC processing for every message,
  // then the batch completes when the slowest MN has served its share of
  // messages/bytes, plus one base round trip. Queueing under load is
  // applied analytically by the runner's NIC-capacity model.
  const uint64_t issue_ns =
      (cfg.post_verb_ns + cfg.cn_msg_ns) * static_cast<uint64_t>(ops_.size());

  // Group per MN (few MNs; linear passes are fine).
  struct PerMn {
    uint64_t msgs = 0;
    uint64_t bytes = 0;
  };
  std::array<PerMn, 256> per_mn{};
  uint32_t max_mn = 0;
  for (const Op& op : ops_) {
    const uint32_t mn = op.addr.mn();
    per_mn[mn].msgs++;
    per_mn[mn].bytes += op.len;
    ep.stats_.note_mn(mn, op.len);
    max_mn = std::max(max_mn, mn);
  }
  uint64_t slowest_service = 0;
  for (uint32_t mn = 0; mn <= max_mn; ++mn) {
    if (per_mn[mn].msgs == 0) continue;
    const uint64_t service =
        cfg.mn_msg_ns * per_mn[mn].msgs +
        static_cast<uint64_t>(static_cast<double>(per_mn[mn].bytes) /
                              cfg.bytes_per_ns);
    slowest_service = std::max(slowest_service, service);
  }
  const uint64_t start_ns = ep.clock_ns_;
  ep.clock_ns_ += issue_ns + slowest_service + cfg.base_rtt_ns;
  if (ep.trace_ != nullptr) {
    ep.trace_->record(phase_name(ep.phase_), start_ns,
                      ep.clock_ns_ - start_ns, ep.trace_tid_);
  }
}

void DoorbellBatch::apply_one(Op& op) {
  MemoryRegion& region = ep_.fabric_.region(op.addr.mn());
  bool inject_cas_fail = false;
  if (ep_.faulty()) {
    VerbKind kind = VerbKind::kRead;
    switch (op.type) {
      case OpType::kRead: kind = VerbKind::kRead; break;
      case OpType::kWrite: kind = VerbKind::kWrite; break;
      case OpType::kCas: kind = VerbKind::kCas; break;
      case OpType::kFaa: kind = VerbKind::kFaa; break;
    }
    inject_cas_fail = ep_.fault_gate(kind, op.addr.mn(), op.site);
  }
  switch (op.type) {
    case OpType::kRead:
      region.read_bytes(op.addr.offset(), op.dst, op.len);
      break;
    case OpType::kWrite:
      region.write_bytes(op.addr.offset(), op.src, op.len);
      break;
    case OpType::kCas:
      if (inject_cas_fail) {
        // Injected lost race: no swap; report the true current value, like
        // hardware CAS reporting the winner's word. Later ops in the batch
        // still execute unconditionally.
        op.cas_ok = false;
        op.old_value = region.load64(op.addr.offset());
        break;
      }
      op.cas_ok = region.cas64(op.addr.offset(), op.expected, op.desired,
                               &op.old_value);
      break;
    case OpType::kFaa:
      op.old_value = region.faa64(op.addr.offset(), op.desired);
      break;
  }
}

}  // namespace sphinx::rdma
