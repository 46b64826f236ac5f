#include "src/platform/fs_faults.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unistd.h>

namespace wayfinder {

namespace {
// Guards plan_/rng_ mutation against the (test-only) Arm/Disarm callers;
// the armed_ atomic keeps the disarmed fast path lock-free.
std::mutex g_plan_mutex;
}  // namespace

FsFaultInjector& FsFaultInjector::Instance() {
  static FsFaultInjector* injector = new FsFaultInjector();
  return *injector;
}

void FsFaultInjector::Arm(const FsFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  plan_ = plan;
  rng_ = Rng(plan.seed);
  writes_.store(0, std::memory_order_relaxed);
  fsyncs_.store(0, std::memory_order_relaxed);
  renames_.store(0, std::memory_order_relaxed);
  armed_.store(!plan.Empty(), std::memory_order_relaxed);
}

void FsFaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  armed_.store(false, std::memory_order_relaxed);
  plan_ = FsFaultPlan();
}

FsFaultInjector::WriteAction FsFaultInjector::NextWrite() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  size_t index = writes_.fetch_add(1, std::memory_order_relaxed);
  if (index == plan_.fail_write_at) {
    return WriteAction::kFail;
  }
  if (index == plan_.short_write_at) {
    return WriteAction::kShort;
  }
  if (plan_.write_fail_prob > 0.0 && rng_.Bernoulli(plan_.write_fail_prob)) {
    return WriteAction::kFail;
  }
  return WriteAction::kPass;
}

bool FsFaultInjector::NextFsyncFails() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  size_t index = fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (index == plan_.fail_fsync_at) {
    return true;
  }
  return plan_.fsync_fail_prob > 0.0 && rng_.Bernoulli(plan_.fsync_fail_prob);
}

FsFaultInjector::RenameAction FsFaultInjector::NextRename() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  size_t index = renames_.fetch_add(1, std::memory_order_relaxed);
  if (index == plan_.crash_before_rename_at) {
    return RenameAction::kCrashBefore;
  }
  if (index == plan_.crash_after_rename_at) {
    return RenameAction::kCrashAfter;
  }
  return RenameAction::kPass;
}

size_t FaultWrite(const void* data, size_t size, std::FILE* stream) {
  FsFaultInjector& injector = FsFaultInjector::Instance();
  if (injector.armed()) {
    switch (injector.NextWrite()) {
      case FsFaultInjector::WriteAction::kFail:
        errno = ENOSPC;
        return 0;
      case FsFaultInjector::WriteAction::kShort: {
        // Half the record lands on disk — the torn tail a crashed append
        // leaves behind. The half really is written so recovery scans see it.
        size_t half = size / 2;
        size_t wrote = std::fwrite(data, 1, half, stream);
        std::fflush(stream);
        errno = ENOSPC;
        return wrote;
      }
      case FsFaultInjector::WriteAction::kPass:
        break;
    }
  }
  return std::fwrite(data, 1, size, stream);
}

bool FaultFsync(int fd) {
  FsFaultInjector& injector = FsFaultInjector::Instance();
  if (injector.armed() && injector.NextFsyncFails()) {
    errno = EIO;
    return false;
  }
  return ::fsync(fd) == 0;
}

bool FaultRename(const std::string& from, const std::string& to) {
  FsFaultInjector& injector = FsFaultInjector::Instance();
  if (injector.armed()) {
    switch (injector.NextRename()) {
      case FsFaultInjector::RenameAction::kCrashBefore:
        errno = EIO;
        return false;
      case FsFaultInjector::RenameAction::kCrashAfter:
        ::rename(from.c_str(), to.c_str());
        errno = EIO;
        return false;
      case FsFaultInjector::RenameAction::kPass:
        break;
    }
  }
  return ::rename(from.c_str(), to.c_str()) == 0;
}

bool AtomicWriteFile(const std::string& path, const std::string& data,
                     std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    return false;
  };
  std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) {
    return fail("open " + tmp);
  }
  if (FaultWrite(data.data(), data.size(), out) != data.size() ||
      std::fflush(out) != 0) {
    int saved = errno;
    std::fclose(out);
    std::remove(tmp.c_str());
    errno = saved;
    return fail("write " + tmp);
  }
  if (!FaultFsync(fileno(out))) {
    int saved = errno;
    std::fclose(out);
    std::remove(tmp.c_str());
    errno = saved;
    return fail("fsync " + tmp);
  }
  std::fclose(out);
  if (!FaultRename(tmp, path)) {
    // An injected "crash" deliberately leaves the tmp file behind, as a real
    // crash would (the next rewrite truncates it). A real rename failure
    // gets tidied up.
    if (!FsFaultInjector::Instance().armed()) {
      std::remove(tmp.c_str());
    }
    return fail("rename " + tmp);
  }
  return true;
}

}  // namespace wayfinder
