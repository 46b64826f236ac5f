// Filesystem fault-injection seam for the durable writers (session journal,
// checkpoints). Production code funnels its write/fsync/rename
// calls through the Fault* wrappers below; tests arm a process-global
// FsFaultPlan to inject the classic durability hazards deterministically:
//
//   * ENOSPC on the Nth write          (fail_write_at)
//   * short/torn write on the Nth op   (short_write_at: half the bytes land)
//   * fsync failure on the Nth fsync   (fail_fsync_at, errno EIO)
//   * crash *before* the Nth rename    (crash_before_rename_at: tmp file
//                                       stays, destination untouched)
//   * crash *after* the Nth rename     (crash_after_rename_at: rename lands,
//                                       but the caller sees a failure — the
//                                       post-rename cleanup never runs)
//
// plus seeded probabilistic variants (write_fail_prob / fsync_fail_prob on
// an Rng stream) for soak-style churn. A disarmed seam is a single relaxed
// atomic load on top of the libc call, cheap enough to leave compiled into
// release builds; an armed empty plan injects nothing.
//
// The deterministic indices count *per op class* from the moment of Arm(),
// so a test can align a fault with, say, exactly the journal append for
// wave 3. Op counters are readable for that alignment. The seam is
// process-global and not thread-synchronized beyond atomics: tests arm it
// around single-threaded recovery scenarios, not under concurrent load.
#ifndef WAYFINDER_SRC_PLATFORM_FS_FAULTS_H_
#define WAYFINDER_SRC_PLATFORM_FS_FAULTS_H_

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <string>

#include "src/util/rng.h"

namespace wayfinder {

// One scheduled fault plan. Index knobs are op ordinals counted from Arm()
// (0 = the first op of that class); kNever disables a knob.
struct FsFaultPlan {
  static constexpr size_t kNever = static_cast<size_t>(-1);

  size_t fail_write_at = kNever;          // ENOSPC, zero bytes written.
  size_t short_write_at = kNever;         // ENOSPC after half the bytes land.
  size_t fail_fsync_at = kNever;          // EIO; data durability unknown.
  size_t crash_before_rename_at = kNever; // Rename skipped entirely.
  size_t crash_after_rename_at = kNever;  // Rename performed, failure reported.

  // Probabilistic faults on a seeded stream (for soak churn). The stream is
  // only consulted for op classes with a nonzero probability, so a plan with
  // both at 0.0 draws no random numbers.
  uint64_t seed = 0;
  double write_fail_prob = 0.0;
  double fsync_fail_prob = 0.0;

  bool Empty() const {
    return fail_write_at == kNever && short_write_at == kNever &&
           fail_fsync_at == kNever && crash_before_rename_at == kNever &&
           crash_after_rename_at == kNever && write_fail_prob == 0.0 &&
           fsync_fail_prob == 0.0;
  }
};

// Process-global injector. Arm() installs a plan and resets the op counters;
// Disarm() restores pass-through behaviour.
class FsFaultInjector {
 public:
  static FsFaultInjector& Instance();

  void Arm(const FsFaultPlan& plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Ops of each class seen since Arm() (0 when disarmed) — lets a test align
  // a fault index with a specific append or verify the seam was exercised.
  size_t writes_seen() const { return writes_.load(std::memory_order_relaxed); }
  size_t fsyncs_seen() const { return fsyncs_.load(std::memory_order_relaxed); }
  size_t renames_seen() const { return renames_.load(std::memory_order_relaxed); }

  // Internal: consulted by the Fault* wrappers. Each returns the action the
  // wrapper must take for the current op of that class.
  enum class WriteAction { kPass, kFail, kShort };
  WriteAction NextWrite();
  bool NextFsyncFails();
  enum class RenameAction { kPass, kCrashBefore, kCrashAfter };
  RenameAction NextRename();

 private:
  FsFaultInjector() = default;

  std::atomic<bool> armed_{false};
  std::atomic<size_t> writes_{0};
  std::atomic<size_t> fsyncs_{0};
  std::atomic<size_t> renames_{0};
  FsFaultPlan plan_;
  Rng rng_;
};

// fwrite through the seam. Returns the byte count actually written; on an
// injected fault errno is ENOSPC and the count is short (possibly zero).
size_t FaultWrite(const void* data, size_t size, std::FILE* stream);

// fsync through the seam; false with errno set on (real or injected) failure.
bool FaultFsync(int fd);

// rename through the seam; false with errno set on failure. An injected
// crash_before leaves `from` in place (the stale-tmp hazard); an injected
// crash_after performs the rename but still reports failure, modelling a
// crash between the rename and any post-rename bookkeeping.
bool FaultRename(const std::string& from, const std::string& to);

// Writes `data` to `path` atomically — tmp file, FaultWrite, fflush,
// FaultFsync, FaultRename — so a crash or injected fault at any step leaves
// either the old destination or the new one, never a torn file. The tmp
// path is `path` + ".tmp". False on failure with a reason in `error`; the
// tmp file is unlinked on every failure except an injected crash (which by
// definition gets no chance to clean up).
bool AtomicWriteFile(const std::string& path, const std::string& data,
                     std::string* error = nullptr);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_PLATFORM_FS_FAULTS_H_
