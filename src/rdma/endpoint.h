// A client-side RDMA endpoint (queue pair + completion queue abstraction).
// Each worker thread owns one Endpoint. Verbs mutate fabric memory
// immediately (with real atomics, so races between clients are real) and
// charge latency to the endpoint's *virtual clock* according to the
// NetworkConfig cost model.
//
// DoorbellBatch models the doorbell-batching optimization the paper relies
// on (Kalia et al., ATC'16): N verbs posted together cost one round trip;
// all of them execute unconditionally and report individual results, exactly
// like hardware (a failed CAS does not suppress a later WRITE in the batch).
// One MN executes a batch's verbs in post order, which the tree protocol
// builds on twice: a leaf publish writes the body before the header that
// releases its lock, and every node lock posts its CAS before a READ of the
// same node, so a won CAS comes back with the under-lock image in the same
// round trip (DESIGN.md Sec. 16). The protocol assumes no order between
// verbs to different MNs.
//
// When a FaultInjector is installed on the fabric (fault_injector.h), every
// metered verb -- standalone or inside a batch -- consults it first and may
// be delayed, stalled, rejected (MN offline; the endpoint retries) or, for
// CAS verbs tagged with a FaultSite, forced to lose its race.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "rdma/fabric.h"
#include "rdma/fault_injector.h"
#include "rdma/phase.h"
#include "rdma/stats.h"
#include "rdma/trace.h"

namespace sphinx::rdma {

class Endpoint;

class DoorbellBatch {
 public:
  explicit DoorbellBatch(Endpoint& ep) : ep_(ep) {}

  // Destination/source buffers must stay alive until execute() returns,
  // matching real verbs semantics.
  void add_read(GlobalAddr addr, void* dst, size_t len);
  // `site` tags protocol steps for crash targeting (kPayloadWrite,
  // kLockRelease, ...); writes are never CAS-failed regardless of tag.
  void add_write(GlobalAddr addr, const void* src, size_t len,
                 FaultSite site = FaultSite::kNone);
  // Returns the op index used to query the CAS outcome after execute().
  // `site` tags retry-safe CAS call sites for fault injection (see
  // fault_injector.h); the default kNone marks the op as never injectable.
  size_t add_cas(GlobalAddr addr, uint64_t expected, uint64_t desired,
                 FaultSite site = FaultSite::kNone);
  size_t add_faa(GlobalAddr addr, uint64_t delta);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  // Issues the batch as one round trip. Memory effects apply in post order.
  void execute();

  // Post-execute result queries.
  bool cas_ok(size_t op_index) const;
  uint64_t old_value(size_t op_index) const;  // CAS observed / FAA previous

  void clear() { ops_.clear(); }

 private:
  friend class Endpoint;

  enum class OpType : uint8_t { kRead, kWrite, kCas, kFaa };

  struct Op {
    OpType type;
    GlobalAddr addr;
    void* dst = nullptr;        // read
    const void* src = nullptr;  // write
    size_t len = 0;
    uint64_t expected = 0;  // cas
    uint64_t desired = 0;   // cas / faa delta
    uint64_t old_value = 0;
    bool cas_ok = false;
    FaultSite site = FaultSite::kNone;  // cas/write: protocol-step tag
  };

  void apply_one(Op& op);

  Endpoint& ep_;
  std::vector<Op> ops_;
};

class Endpoint {
 public:
  // `cn` selects which compute-node NIC this endpoint's traffic shares.
  // Unmetered endpoints (bootstrap/loading) mutate memory without touching
  // clocks or statistics.
  Endpoint(Fabric& fabric, uint32_t cn, bool metered = true)
      : fabric_(fabric), cn_(cn), metered_(metered), fault_client_id_(cn) {
    assert(cn < fabric.config().num_cns);
    stats_.reserve_mns(fabric.config().num_mns);
  }

  // ---- one-sided verbs (each is one round trip) ---------------------------

  void read(GlobalAddr addr, void* dst, size_t len) {
    if (faulty()) fault_gate(VerbKind::kRead, addr.mn(), FaultSite::kNone);
    fabric_.region(addr.mn()).read_bytes(addr.offset(), dst, len);
    charge_single(addr.mn(), len, /*is_read=*/true);
    if (metered_) stats_.reads++;
  }

  // `site` tags protocol steps for crash targeting; writes are never
  // CAS-failed regardless of tag.
  void write(GlobalAddr addr, const void* src, size_t len,
             FaultSite site = FaultSite::kNone) {
    if (faulty()) fault_gate(VerbKind::kWrite, addr.mn(), site);
    fabric_.region(addr.mn()).write_bytes(addr.offset(), src, len);
    charge_single(addr.mn(), len, /*is_read=*/false);
    if (metered_) stats_.writes++;
  }

  uint64_t read64(GlobalAddr addr) {
    uint64_t v;
    read(addr, &v, sizeof(v));
    return v;
  }

  void write64(GlobalAddr addr, uint64_t v,
               FaultSite site = FaultSite::kNone) {
    write(addr, &v, sizeof(v), site);
  }

  // `site` tags retry-safe call sites for CAS fault injection (see
  // fault_injector.h). An injected failure performs no swap and reports
  // the word's true current value through *observed, indistinguishable
  // from losing the race to another client.
  bool cas(GlobalAddr addr, uint64_t expected, uint64_t desired,
           uint64_t* observed = nullptr, FaultSite site = FaultSite::kNone) {
    if (faulty() && fault_gate(VerbKind::kCas, addr.mn(), site)) {
      if (observed != nullptr) {
        *observed = fabric_.region(addr.mn()).load64(addr.offset());
      }
      charge_single(addr.mn(), 8, /*is_read=*/false);
      if (metered_) stats_.cas++;
      return false;
    }
    const bool ok =
        fabric_.region(addr.mn()).cas64(addr.offset(), expected, desired,
                                        observed);
    charge_single(addr.mn(), 8, /*is_read=*/false);
    if (metered_) stats_.cas++;
    return ok;
  }

  uint64_t faa(GlobalAddr addr, uint64_t delta) {
    if (faulty()) fault_gate(VerbKind::kFaa, addr.mn(), FaultSite::kNone);
    const uint64_t old = fabric_.region(addr.mn()).faa64(addr.offset(), delta);
    charge_single(addr.mn(), 8, /*is_read=*/false);
    if (metered_) stats_.faa++;
    return old;
  }

  // ---- virtual time -------------------------------------------------------

  // Charges local CPU work (hash computation, filter probes, ...).
  void advance_local(uint64_t ns) {
    if (metered_) clock_ns_ += ns;
  }

  uint64_t clock_ns() const { return clock_ns_; }
  void set_clock_ns(uint64_t ns) { clock_ns_ = ns; }

  // ---- introspection ------------------------------------------------------

  const EndpointStats& stats() const { return stats_; }

  // ---- RTT attribution & tracing ------------------------------------------

  // The protocol phase charged for subsequent round trips; set via
  // PhaseScope (innermost scope wins), restored on scope exit.
  Phase phase() const { return phase_; }
  void set_phase(Phase p) { phase_ = p; }

  // Attaches (or detaches, with nullptr) a span recorder: every metered
  // round trip then records a phase-named span on the virtual clock under
  // thread id `tid`. Null-checked in the charge paths, so detached tracing
  // costs nothing and leaves clocks/stats untouched.
  void set_trace(TraceRecorder* recorder, uint32_t tid = 0) {
    trace_ = recorder;
    trace_tid_ = tid;
  }
  TraceRecorder* trace() const { return trace_; }


  Fabric& fabric() { return fabric_; }
  uint32_t cn() const { return cn_; }
  bool metered() const { return metered_; }

  // ---- fault injection ----------------------------------------------------

  // Identifies this endpoint in fault schedules (and per-client event
  // logs). Defaults to the CN id; stress harnesses set a unique id per
  // worker so probabilistic schedules are a pure function of the worker.
  void set_fault_client_id(uint32_t id) { fault_client_id_ = id; }
  uint32_t fault_client_id() const { return fault_client_id_; }
  uint64_t fault_verb_seq() const { return fault_verb_seq_; }

  // True once a kClientCrash rule killed this endpoint; it must never issue
  // another verb (workers abandon it and reincarnate with a fresh one).
  bool crashed() const { return crashed_; }

  // True when verbs from this endpoint are subject to fault injection.
  bool faulty() const {
    return metered_ && fabric_.fault_injector() != nullptr;
  }

  // Consults the installed injector for one verb. Applies delays/stalls to
  // the virtual clock, loops through MN-offline rejections (charging one
  // verb timeout per reissue), and returns whether a CAS at `site` must
  // report an injected failure. Defined in endpoint.cpp.
  bool fault_gate(VerbKind kind, uint32_t mn, FaultSite site);

 private:
  friend class DoorbellBatch;

  // Reissue cap while an MN is sticky-offline: enough real yields for a
  // controller thread to restore the MN, small enough that a forgotten
  // restore degrades into a counted give-up instead of a hang.
  static constexpr uint32_t kMaxOfflineRetries = 1u << 14;

  // Charges one verb of `payload` bytes to/from MN `mn` as a standalone
  // round trip. Unloaded cost model: posting CPU + CN NIC processing +
  // MN NIC service (per-message + per-byte) + base round trip. Queueing
  // under load is applied analytically afterwards (the fluid NIC-capacity
  // model in ycsb::YcsbRunner), keeping per-client virtual timelines
  // independent and results deterministic.
  void charge_single(uint32_t mn, size_t payload, bool is_read) {
    if (!metered_) return;
    const NetworkConfig& cfg = fabric_.config();
    stats_.messages++;
    stats_.round_trips++;
    stats_.rtts_by_phase[static_cast<size_t>(phase_)]++;
    stats_.bytes_by_phase[static_cast<size_t>(phase_)] += payload;
    if (is_read) {
      stats_.bytes_read += payload;
    } else {
      stats_.bytes_written += payload;
    }
    stats_.note_mn(mn, payload);
    const uint64_t service =
        cfg.mn_msg_ns + static_cast<uint64_t>(static_cast<double>(payload) /
                                              cfg.bytes_per_ns);
    const uint64_t start_ns = clock_ns_;
    clock_ns_ += cfg.post_verb_ns + cfg.cn_msg_ns + service + cfg.base_rtt_ns;
    if (trace_ != nullptr) {
      trace_->record(phase_name(phase_), start_ns, clock_ns_ - start_ns,
                     trace_tid_);
    }
  }

  Fabric& fabric_;
  uint32_t cn_;
  bool metered_;
  uint64_t clock_ns_ = 0;
  EndpointStats stats_;
  uint32_t fault_client_id_;
  uint64_t fault_verb_seq_ = 0;
  bool crashed_ = false;
  Phase phase_ = Phase::kUnattributed;
  TraceRecorder* trace_ = nullptr;
  uint32_t trace_tid_ = 0;
};

// RAII phase tag: round trips charged while the scope lives are attributed
// to `p`. Scopes nest; the innermost one wins (a recovery helper called
// from an INHT insert re-tags its verbs kRecovery), and the previous phase
// is restored on exit -- including exits by exception (ClientCrashed), so a
// crashed-and-reincarnated worker never leaks a stale phase.
class PhaseScope {
 public:
  PhaseScope(Endpoint& ep, Phase p) : ep_(ep), saved_(ep.phase()) {
    ep_.set_phase(p);
  }
  ~PhaseScope() { ep_.set_phase(saved_); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Endpoint& ep_;
  Phase saved_;
};

}  // namespace sphinx::rdma
