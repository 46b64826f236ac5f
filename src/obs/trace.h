// Trial/wave tracing — a fixed-capacity per-session ring of trace events.
//
// Every stage of a trial's life (propose, build, evaluate, observe/retrain,
// commit), the durability action taken on its behalf (journal-append), and
// the hostile-world reactions (retry, drift-revalidate) can drop one event
// into the owning session's TraceRing, stamped from the TraceClock seam
// (src/obs/clock.h). The ring is sized once at construction and overwrites
// oldest-first when full, counting what it dropped — tracing a week-old
// session costs the same memory as tracing a fresh one.
//
// Recording self-gates on obs::Enabled(): a metrics-off run takes one
// relaxed load per call site and reads the clock zero times, so every
// pre-existing trajectory pin stays bit-identical. Export is Chrome's
// trace_event JSON (chrome://tracing, Perfetto), fetched live over the
// service socket via `wfctl trace <id> --out trace.json`.
#ifndef WAYFINDER_SRC_OBS_TRACE_H_
#define WAYFINDER_SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace wayfinder {
namespace obs {

enum class TraceKind : uint8_t {
  kPropose = 0,
  kBuild,
  kEvaluate,
  kObserve,
  kCommit,
  kJournalAppend,
  kRetry,
  kDriftRevalidate,
};

// Stable lowercase name ("propose", "journal_append", ...); doubles as the
// Chrome trace event name.
const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  TraceKind kind;
  uint64_t iteration;  // Trial iteration (or wave ordinal for wave-scoped events).
  int64_t start_ns;    // TraceClock stamp at the start of the span.
  int64_t dur_ns;      // 0 = instant event.
};

class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceRing(size_t capacity = kDefaultCapacity);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // wf-hot-path: bounded work under a leaf mutex, writes into the
  // preallocated ring slot, no allocation. No-op when recording is off.
  void Record(TraceKind kind, uint64_t iteration, int64_t start_ns,
              int64_t dur_ns);

  // Appends n already-stamped events under one gate check and one lock —
  // the commit path batches a trial's build/retry/commit instants so its
  // bookkeeping costs one clock read and one lock, not one per event, and
  // the batch lands in the ring without interleaving. No-op when off.
  void RecordBatch(const TraceEvent* events, size_t n);

  // Convenience: stamp an instant event at NowNs() (no-op when off).
  void RecordInstant(TraceKind kind, uint64_t iteration);

  size_t capacity() const { return capacity_; }
  // Events recorded minus events still held — how much history the ring
  // overwrote.
  uint64_t dropped() const;
  // Oldest-first copy of the held events.
  std::vector<TraceEvent> Snapshot() const;

 private:
  // lock-order: leaf — guards the ring slots and counters only; held for
  // a bounded copy, never while calling outside src/obs/.
  mutable std::mutex mutex_;
  const size_t capacity_;
  std::vector<TraceEvent> ring_;  // Sized to capacity_ up front.
  uint64_t total_ = 0;            // Events ever recorded.
};

// Renders events as Chrome trace_event JSON: one complete ("ph":"X") event
// per spanned TraceEvent, instant ("ph":"i") for dur_ns == 0, timestamps
// rebased to the earliest event and expressed in microseconds, pid 1 and
// tid 1 (the ring has no thread attribution by design — stages already
// serialize through the session's commit order). `label` becomes the
// process_name metadata entry (the session id).
std::string RenderChromeTrace(const std::vector<TraceEvent>& events,
                              const std::string& label);

// Structural validation of Chrome trace_event JSON: parses the text as
// JSON (objects/arrays/strings/numbers/bools/null, no trailing garbage)
// and checks the trace shape — a top-level object whose "traceEvents" is
// an array of objects each carrying a string "name", a string "ph", and
// numeric "ts"/"pid"/"tid". Used by the acceptance tests; cheap enough to
// run against every export.
bool ValidateChromeTraceJson(const std::string& json, std::string* error);

}  // namespace obs
}  // namespace wayfinder

#endif  // WAYFINDER_SRC_OBS_TRACE_H_
