#pragma once
// gtl::Finder — the session API over the paper's three-phase detector
// (DAC 2010, Ch. IV).  Where find_tangled_logic() runs the whole
// pipeline as an opaque one-shot, a Finder session
//
//   * decomposes the pipeline into individually callable phases with
//     inspectable intermediate artifacts:
//
//       grow_orderings()      -> OrderingSet   (Phase I)
//       extract_candidates()  -> CandidateSet  (Phase II)
//       refine_and_prune()    -> FinderResult  (Phase III)
//       run()                 -> FinderResult  (all three, byte-identical
//                                               to find_tangled_logic)
//
//   * reports progress through a ProgressObserver and honors a
//     cooperative CancelToken at seed granularity, returning partial
//     results whose completed seeds are byte-identical to a full run;
//
//   * owns reusable per-worker scratch (ThreadPool, OrderingEngines,
//     GroupConnectivity trackers), so repeated run() calls on the same
//     netlist skip thread spawn and O(|V|) allocations — the win for
//     repeated-query serving is measured in perf_microbench's
//     BM_FinderReuse vs BM_FinderColdStart.
//
// Lifetimes: the session borrows the Netlist (and, if set, the observer
// and cancel token); all must outlive the Finder.  A session is bound to
// one netlist and one validated config; sessions are cheap, make a new
// one to change either.  Finder is not thread-safe — one session per
// serving thread — but different sessions never share state.
//
// Determinism: identical to the one-shot API.  Results depend only on
// FinderConfig (notably rng_seed), never on num_threads or on how many
// times the session has been reused.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "finder/candidate.hpp"
#include "finder/progress.hpp"
#include "finder/refine.hpp"
#include "netlist/netlist.hpp"
#include "order/linear_ordering.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace gtl {

struct FinderConfig {
  /// m: number of random starting seeds.
  std::size_t num_seeds = 100;
  /// Z: maximum linear ordering length.
  std::size_t max_ordering_length = 100'000;
  /// Paper's large-net update skip (0 = exact).
  std::uint32_t large_net_threshold = 20;
  /// Ablation: rank frontier cells by min-cut first (see OrderingConfig).
  bool min_cut_first = false;
  /// Φ used for selection and pruning (paper's final choice: GTL-SD).
  ScoreKind score = ScoreKind::kGtlSd;
  MinimumConfig minimum;
  CurveConfig curve;
  /// l: inner re-growths per candidate in Phase III; 0 skips refinement
  /// (ablation knob).
  std::size_t refine_seeds = 3;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  std::uint64_t rng_seed = 1;
  /// Deduplicate identical Phase II candidates before refinement (pure
  /// speed optimization: duplicates refine to overlapping results that
  /// pruning would discard anyway).
  bool dedup_candidates = true;

  /// Check every field against its documented domain.  Returns OK or an
  /// invalid-argument Status naming the offending field — never throws,
  /// so services can reject bad request configs gracefully.  See
  /// finder_json.hpp for JSON (de)serialization.
  [[nodiscard]] Status validate() const;
};

struct FinderResult {
  /// Final disjoint GTLs, best (lowest) Φ first.
  std::vector<Candidate> gtls;
  /// The shared scoring context (global Rent exponent = mean over all m
  /// ordering estimates; A_G from the netlist).
  ScoreContext context;
  std::size_t orderings_grown = 0;
  std::size_t candidates_before_refine = 0;
  std::size_t candidates_after_dedup = 0;
  double phase1_2_seconds = 0.0;
  double phase3_seconds = 0.0;
  double total_seconds = 0.0;
  /// True when a CancelToken cut the run short; `gtls` then covers only
  /// the seeds/candidates completed before the cancellation point (each
  /// byte-identical to its full-run counterpart).
  bool cancelled = false;
};

/// Phase I artifact: one grown ordering per selected seed.  When the
/// phases are stepped individually, the orderings stay resident so
/// Phase II is re-runnable and inspectable — budget ~20 bytes x
/// num_seeds x max_ordering_length in the worst case.  run() releases
/// the `orderings` storage right after Phase II (seeds/completed
/// survive), keeping the composed path's peak memory at the streaming
/// one-shot level.
struct OrderingSet {
  /// The m seed cells drawn from the movable set (I.1).
  std::vector<CellId> seeds;
  /// orderings[i] grew from seeds[i]; untouched (empty) when the seed was
  /// skipped by cancellation.
  std::vector<LinearOrdering> orderings;
  /// completed[i] != 0 iff orderings[i] was actually grown.
  std::vector<std::uint8_t> completed;
  double seconds = 0.0;

  [[nodiscard]] std::size_t num_completed() const {
    std::size_t n = 0;
    for (const std::uint8_t c : completed) n += c != 0;
    return n;
  }
};

/// Phase II artifact: candidates extracted from the score curves.
struct CandidateSet {
  /// Candidates in seed order, deduplicated when the config asks for it;
  /// exactly what Phase III will refine.
  std::vector<Candidate> candidates;
  /// Candidates extracted before deduplication.
  std::size_t extracted = 0;
  /// Shared scoring context: global Rent exponent (mean of per-ordering
  /// estimates, paper §3.2.2) plus A_G.
  ScoreContext context;
  double seconds = 0.0;
};

class Finder {
 public:
  /// Binds the session to `nl` with a validated config.  Precondition:
  /// cfg.validate().is_ok() — call it first for a throw-free rejection
  /// path; the constructor itself GTL_REQUIREs validity.  Services should
  /// prefer the Status-returning create() factory below.
  explicit Finder(const Netlist& nl, FinderConfig cfg = {});

  /// Throw-free session construction: validates `cfg` and, on success,
  /// binds a new session to `nl` in *out.  On failure *out is untouched
  /// and the Status names the offending config field — the rejection
  /// path a server needs for untrusted request configs (the throwing
  /// constructor is now a thin wrapper over the same validation).
  [[nodiscard]] static Status create(const Netlist& nl, FinderConfig cfg,
                                     std::unique_ptr<Finder>* out);

  Finder(const Finder&) = delete;
  Finder& operator=(const Finder&) = delete;

  [[nodiscard]] const Netlist& netlist() const { return *nl_; }
  [[nodiscard]] const FinderConfig& config() const { return cfg_; }

  /// Observe progress (nullptr disables).  Sticky across runs.
  void set_observer(ProgressObserver* observer) { observer_ = observer; }
  /// Cooperate with cancellation (nullptr disables).  Sticky across runs.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  // --- the phase-decomposed pipeline ---

  /// Phase I: select seeds and grow one linear ordering per seed.
  /// Starts a fresh run (drops prior phase artifacts and result).
  const OrderingSet& grow_orderings();

  /// Phase II: score curves + clear-minimum extraction over the grown
  /// orderings.  Precondition: grow_orderings() ran this session run.
  const CandidateSet& extract_candidates();

  /// Phase III: genetic refinement then best-first pruning.
  /// Precondition: extract_candidates() ran this session run.
  const FinderResult& refine_and_prune();

  /// All three phases; byte-identical gtls to find_tangled_logic(nl, cfg)
  /// (pinned by tests/finder/finder_equivalence_test.cpp).  Releases the
  /// Phase I orderings once Phase II has consumed them (see OrderingSet);
  /// step the phases individually to keep them.
  const FinderResult& run();

  // --- artifact access (valid once the producing phase has run) ---

  [[nodiscard]] bool has_orderings() const { return stage_ >= Stage::kGrown; }
  [[nodiscard]] bool has_candidates() const {
    return stage_ >= Stage::kExtracted;
  }
  [[nodiscard]] bool has_result() const { return stage_ >= Stage::kDone; }

  [[nodiscard]] const OrderingSet& orderings() const;
  [[nodiscard]] const CandidateSet& candidates() const;
  [[nodiscard]] const FinderResult& result() const;

  /// True when the current run's artifacts were truncated by the token.
  [[nodiscard]] bool cancelled() const { return cancelled_; }

 private:
  enum class Stage { kIdle, kGrown, kExtracted, kDone };

  /// Per-worker reusable scratch; allocated lazily, kept across runs.
  /// Ownership rule: scratch_[w] is touched only by the task holding
  /// worker slot w of the current dispatch, and no phase reads scratch
  /// contents written for another work item — which is why reuse across
  /// items and runs cannot change results.
  struct WorkerScratch {
    std::unique_ptr<OrderingEngine> engine;
    std::unique_ptr<GroupConnectivity> group;
    /// Phase II curve buffers (selected-Φ values + shared ln tables).
    CurveScratch curve;
    /// Phase III genetic-family merge buffers + inner-regrowth curves.
    RefineArena arena;
  };

  [[nodiscard]] bool cancel_requested() const {
    return cancel_ != nullptr && cancel_->cancel_requested();
  }
  [[nodiscard]] OrderingEngine& engine_for(std::size_t worker);
  [[nodiscard]] GroupConnectivity& group_for(std::size_t worker);

  void notify_phase_start(FinderPhase phase, std::size_t work_items)
      GTL_EXCLUDES(observer_mu_);
  void notify_phase_end(FinderPhase phase, double seconds)
      GTL_EXCLUDES(observer_mu_);
  void notify_ordering_grown(std::size_t total) GTL_EXCLUDES(observer_mu_);
  void notify_candidate_refined(std::size_t total) GTL_EXCLUDES(observer_mu_);

  const Netlist* nl_;
  FinderConfig cfg_;
  OrderingConfig ocfg_;
  ProgressObserver* observer_ = nullptr;
  const CancelToken* cancel_ = nullptr;

  // Session-owned, reused across runs.
  ThreadPool pool_;
  std::vector<WorkerScratch> scratch_;
  std::vector<CellId> movable_;

  // Current run's artifacts.
  Stage stage_ = Stage::kIdle;
  bool cancelled_ = false;
  OrderingSet orderings_;
  CandidateSet candidates_;
  FinderResult result_;

  // Observer serialization (callbacks fire from worker threads).  The
  // progress counter is atomic so the no-observer fast path never takes
  // the mutex; with an observer attached, count-and-callback happen
  // under the lock, keeping the delivered counts strictly increasing.
  // observer_mu_ is a serialization capability, not a data guard:
  // observer_ itself is only written between runs (set_observer contract)
  // and so carries no GTL_GUARDED_BY.
  Mutex observer_mu_;
  std::atomic<std::size_t> progress_counter_{0};
};

/// One-shot convenience entry point: the full three-phase pipeline on a
/// fresh session, for one-off calls (scripts, tests, single-query
/// tools).  Repeated queries, progress/cancellation and the Phase I/II
/// artifacts need a Finder.  Like the Finder constructor, throws
/// std::logic_error on an invalid config; call cfg.validate() first for
/// untrusted input.
[[nodiscard]] inline FinderResult find_tangled_logic(
    const Netlist& nl, const FinderConfig& cfg = {}) {
  return Finder(nl, cfg).run();
}

}  // namespace gtl
