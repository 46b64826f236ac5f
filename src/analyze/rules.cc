#include "src/analyze/rules.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

namespace wayfinder {
namespace analyze {
namespace {

// --- path scoping ------------------------------------------------------------

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// The bit-determinism core: everything that feeds search trajectories. Any
// ambient entropy here (wall clock, libc rand, environment) breaks the
// replay guarantees proposal_pipeline_test / fault_plan_test pin.
bool InDeterminismDirs(const std::string& path) {
  // src/obs/ is included deliberately: the observability plane sits inside
  // instrumented search-core code, so ambient entropy there (system_clock,
  // getenv, rand) would leak straight into recorded runs. Its one sanctioned
  // clock is steady_clock, which obs-clock-seam confines to this directory.
  return StartsWith(path, "src/core/") || StartsWith(path, "src/nn/") ||
         StartsWith(path, "src/search/") || StartsWith(path, "src/bayes/") ||
         StartsWith(path, "src/forest/") || StartsWith(path, "src/causal/") ||
         StartsWith(path, "src/simos/") || StartsWith(path, "src/obs/");
}

bool InDurabilityDirs(const std::string& path) {
  return StartsWith(path, "src/service/") || StartsWith(path, "src/platform/");
}

bool IsSyscallSeamFile(const std::string& path) {
  // The two sanctioned raw-syscall sites: the EINTR-safe socket layer and
  // the fault-injectable filesystem seam. Everything else must call through
  // them so recovery_test's fault plans actually cover the I/O.
  return path == "src/util/socket.cc" || path == "src/platform/fs_faults.cc";
}

bool IsDurableWriterFile(const std::string& path) {
  // Files allowed to open journal bytes directly: the seam itself and the
  // durable writer built on it (an append-only format with its own torn-tail
  // recovery, pinned by recovery_test).
  return path == "src/platform/fs_faults.cc" ||
         path == "src/service/session_journal.cc";
}

bool InLockOrderScope(const std::string& path) {
  // The subsystems with real multi-lock interplay (manager mutex +
  // transport loop + observer pushes), plus src/obs/ whose leaf mutexes are
  // taken from inside all of them. Every mutex member here documents its
  // place in the ordering so TSan findings map back to a written rule.
  return StartsWith(path, "src/service/session_manager") ||
         StartsWith(path, "src/transport/") || StartsWith(path, "src/obs/");
}

// --- token helpers -----------------------------------------------------------

// Index view over tokens with comments/preprocessor stripped, so code
// patterns can look at adjacent tokens without tripping over prose.
struct CodeView {
  std::vector<const Token*> code;

  explicit CodeView(const std::vector<Token>& tokens) {
    code.reserve(tokens.size());
    for (const Token& t : tokens) {
      if (t.kind == TokenKind::kComment || t.kind == TokenKind::kPreprocessor) {
        continue;
      }
      code.push_back(&t);
    }
  }

  size_t size() const { return code.size(); }
  const Token& at(size_t i) const { return *code[i]; }
  bool IsIdent(size_t i, std::string_view text) const {
    return i < size() && at(i).kind == TokenKind::kIdentifier &&
           at(i).text == text;
  }
  bool IsPunct(size_t i, std::string_view text) const {
    return i < size() && at(i).kind == TokenKind::kPunct && at(i).text == text;
  }
};

// True if code[i] begins a *call-position* use of a banned libc-style name:
// the identifier is followed by '(' and is either unqualified, globally
// qualified (::name), or std-qualified (std::name). Member access
// (obj.name / ptr->name) and foreign-namespace qualification never match.
bool IsBareOrStdCall(const CodeView& v, size_t i) {
  if (!(i + 1 < v.size() && v.IsPunct(i + 1, "("))) return false;
  if (i == 0) return true;
  const Token& prev = v.at(i - 1);
  if (prev.kind == TokenKind::kPunct &&
      (prev.text == "." || prev.text == "->")) {
    return false;
  }
  if (prev.kind == TokenKind::kPunct && prev.text == "::") {
    if (i >= 2 && v.at(i - 2).kind == TokenKind::kIdentifier) {
      return v.at(i - 2).text == "std";  // std::rename yes, fs::rename no.
    }
    return true;  // Global qualification: ::write.
  }
  return true;
}

// Finds the index of the matching closer for the opener at `open` (one of
// ( { < [ ). Returns v.size() when unbalanced.
size_t MatchingClose(const CodeView& v, size_t open, char open_c,
                     char close_c) {
  int depth = 0;
  for (size_t i = open; i < v.size(); ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text.size() == 1 && t.text[0] == open_c) ++depth;
    if (t.text.size() == 1 && t.text[0] == close_c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return v.size();
}

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// --- rule: det-banned-call ---------------------------------------------------

void CheckDetBannedCall(const std::string& path, const CodeView& v,
                        std::vector<Diagnostic>* out) {
  static constexpr std::array<std::string_view, 5> kBannedCalls = {
      "rand", "srand", "time", "gettimeofday", "getenv"};
  static constexpr std::array<std::string_view, 2> kBannedTypes = {
      "random_device", "system_clock"};
  for (size_t i = 0; i < v.size(); ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    for (std::string_view name : kBannedCalls) {
      if (t.text == name && IsBareOrStdCall(v, i)) {
        out->push_back({path, t.line, "det-banned-call",
                        "call to '" + t.text +
                            "' injects ambient entropy; all randomness in "
                            "the search core must come from a seeded "
                            "wayfinder::Rng (src/util/rng.h) and all time "
                            "from SimClock"});
      }
    }
    for (std::string_view name : kBannedTypes) {
      if (t.text != name) continue;
      if (i > 0 && v.at(i - 1).kind == TokenKind::kPunct &&
          (v.at(i - 1).text == "." || v.at(i - 1).text == "->")) {
        continue;
      }
      out->push_back({path, t.line, "det-banned-call",
                      "use of '" + t.text +
                          "' is nondeterministic; search-core randomness "
                          "must come from a seeded wayfinder::Rng and time "
                          "from SimClock"});
    }
  }
}

// --- rule: det-rng-seed ------------------------------------------------------

// Heuristic: a constructed Rng whose seed expression mentions none of the
// counter-derivation vocabulary (a *seed*/*hash* identifier, HashCombine,
// StableHash, SplitMix64, Fork) is almost certainly a fixed or ad-hoc seed
// that will collide across threads/iterations. The sanctioned seam that
// derives per-candidate streams lives in src/core/proposal.cc.
bool SeedArgsLookDerived(const CodeView& v, size_t open, size_t close) {
  for (size_t i = open + 1; i < close; ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "HashCombine" || t.text == "StableHash" ||
        t.text == "SplitMix64" || t.text == "Fork" || t.text == "Next") {
      return true;
    }
    std::string low = Lower(t.text);
    if (low.find("seed") != std::string::npos ||
        low.find("hash") != std::string::npos) {
      return true;
    }
  }
  return false;
}

void CheckDetRngSeed(const std::string& path, const CodeView& v,
                     std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!v.IsIdent(i, "Rng")) continue;
    if (i > 0) {
      const Token& prev = v.at(i - 1);
      if (prev.kind == TokenKind::kIdentifier &&
          (prev.text == "class" || prev.text == "struct")) {
        continue;
      }
      if (prev.kind == TokenKind::kPunct &&
          (prev.text == "." || prev.text == "->" || prev.text == "::")) {
        continue;  // Member access or qualified name, not a construction.
      }
    }
    if (i + 1 < v.size() && v.IsPunct(i + 1, "::")) continue;  // Rng::...

    // Locate the argument list: `Rng(args)` / `Rng{args}` for a temporary,
    // `Rng name(args)` / `Rng name{args}` for a declaration.
    size_t open = v.size();
    char open_c = '(', close_c = ')';
    if (i + 1 < v.size() &&
        (v.IsPunct(i + 1, "(") || v.IsPunct(i + 1, "{"))) {
      open = i + 1;
    } else if (i + 2 < v.size() &&
               v.at(i + 1).kind == TokenKind::kIdentifier &&
               (v.IsPunct(i + 2, "(") || v.IsPunct(i + 2, "{"))) {
      open = i + 2;
    }
    if (open >= v.size()) continue;  // Plain declaration / parameter / return.
    if (v.at(open).text == "{") {
      open_c = '{';
      close_c = '}';
    }
    size_t close = MatchingClose(v, open, open_c, close_c);
    if (close >= v.size() || close == open + 1) {
      // Empty parens: `Rng Fork();` function declaration or `Rng rng{}`
      // default construction — neither takes an ad-hoc seed.
      continue;
    }
    if (!SeedArgsLookDerived(v, open, close)) {
      out->push_back(
          {path, v.at(i).line, "det-rng-seed",
           "Rng constructed from a seed that is not visibly derived from a "
           "seed/hash counter (HashCombine/StableHash/...); per-stream seeds "
           "must be counter-derived — the sanctioned derivation seam is "
           "src/core/proposal.cc"});
    }
  }
}

// --- rule: io-syscall-seam ---------------------------------------------------

void CheckIoSyscallSeam(const std::string& path, const CodeView& v,
                        std::vector<Diagnostic>* out) {
  static constexpr std::array<std::string_view, 9> kSyscalls = {
      "read", "write",  "connect", "accept", "accept4",
      "poll", "fsync",  "rename",  "unlink"};
  for (size_t i = 0; i < v.size(); ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    for (std::string_view name : kSyscalls) {
      if (t.text == name && IsBareOrStdCall(v, i)) {
        out->push_back(
            {path, t.line, "io-syscall-seam",
             "direct '" + t.text +
                 "' syscall outside the sanctioned seams; socket I/O goes "
                 "through src/util/socket.cc (EINTR/SIGPIPE discipline) and "
                 "durable file ops through the Fault* wrappers in "
                 "src/platform/fs_faults.cc (fault-injectable)"});
      }
    }
  }
}

// --- function-context rules (dur-fsync-before-rename, hot-path-alloc) --------

// Walks the token stream tracking brace contexts. A '{' opens a *function
// body* when, looking back past const/noexcept/override/mutable/-> and a
// possible trailing return type, the previous interesting token is ')'.
// Namespace/class/enum braces and initializer lists stay kOther.
struct BraceContext {
  bool is_function = false;
  bool fsync_seen = false;   // An fsync-through-the-seam happened earlier.
  bool hot_path = false;     // Body is marked `wf-hot-path`.
};

bool OpensFunctionBody(const CodeView& v, size_t brace) {
  size_t i = brace;
  while (i > 0) {
    --i;
    const Token& t = v.at(i);
    if (t.kind == TokenKind::kIdentifier) {
      if (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || t.text == "mutable" || t.text == "try") {
        continue;
      }
      // Trailing return type `-> T {`: accept one identifier then demand
      // the arrow before it.
      if (i >= 1 && v.at(i - 1).kind == TokenKind::kPunct &&
          v.at(i - 1).text == "->") {
        i -= 1;
        continue;
      }
      return false;
    }
    if (t.kind == TokenKind::kPunct) {
      if (t.text == ")") {
        // Distinguish a parameter list from a control-flow condition: walk
        // back to the matching '(' and look at what introduces it.
        int depth = 0;
        size_t j = i + 1;
        while (j > 0) {
          --j;
          const Token& p = v.at(j);
          if (p.kind != TokenKind::kPunct) continue;
          if (p.text == ")") ++depth;
          if (p.text == "(") {
            --depth;
            if (depth == 0) break;
          }
        }
        if (j == 0 && !(v.at(0).kind == TokenKind::kPunct &&
                        v.at(0).text == "(")) {
          return false;
        }
        if (j == 0) return true;  // File starts with the parameter list.
        const Token& intro = v.at(j - 1);
        if (intro.kind == TokenKind::kIdentifier) {
          return intro.text != "if" && intro.text != "for" &&
                 intro.text != "while" && intro.text != "switch" &&
                 intro.text != "catch" && intro.text != "return" &&
                 intro.text != "sizeof" && intro.text != "decltype" &&
                 intro.text != "alignof";
        }
        // `](...)` introduces a lambda's parameter list; `>(...)` a
        // template-id call... which can't be followed by '{' at statement
        // level except as a function definition, so accept both. Anything
        // else (an operator, '=', ',') is an expression — not a function.
        return intro.kind == TokenKind::kPunct &&
               (intro.text == "]" || intro.text == ">");
      }
      if (t.text == "::" || t.text == "->" || t.text == ">" || t.text == "*" ||
          t.text == "&") {
        continue;  // Bits of a trailing return type.
      }
      return false;
    }
    return false;
  }
  return false;
}

// True when code[i] names an allocating type (a std container, string or
// function, or the nn Matrix) that starts a declaration or a temporary: the
// type, with its template arguments, followed by a declarator name, '(' or
// '{'. References and pointers to one (`const Matrix&`, `std::string*`),
// qualified names (`Matrix::Xavier`) and member access stay silent, and so
// does a lambda's `-> Matrix` return type.
bool ConstructsAllocatingType(const CodeView& v, size_t i) {
  const Token& t = v.at(i);
  const bool std_qualified = i >= 2 && v.IsPunct(i - 1, "::") && v.IsIdent(i - 2, "std");
  bool allocating = false;
  if (t.text == "Matrix") {
    allocating = i == 0 || !(v.IsPunct(i - 1, ".") || v.IsPunct(i - 1, "->") ||
                             (v.IsPunct(i - 1, "::") && !v.IsIdent(i - 2, "wayfinder")));
  } else if (std_qualified) {
    allocating = t.text == "vector" || t.text == "string" || t.text == "map" ||
                 t.text == "unordered_map" || t.text == "function";
  }
  if (!allocating) {
    return false;
  }
  size_t after = i + 1;
  if (v.IsPunct(after, "<")) {
    after = MatchingClose(v, after, '<', '>') + 1;
  }
  if (after >= v.size()) {
    return false;
  }
  const Token& next = v.at(after);
  return next.kind == TokenKind::kIdentifier || v.IsPunct(after, "(") ||
         v.IsPunct(after, "{");
}

void CheckFunctionContextRules(const std::string& path,
                               const std::vector<Token>& tokens,
                               bool durability_in_scope,
                               std::vector<Diagnostic>* out) {
  // The walk needs comments inline (the hot-path marker arms the next
  // function), so it runs over the raw stream with its own code cursor.
  // The marker is the word wf-hot-path followed by a colon (built obliquely
  // here so this file's own comments never look like markers).
  const std::string kHotMarker = std::string("wf-hot-path") + ":";
  std::vector<BraceContext> stack;
  bool next_function_hot = false;
  int paren_depth = 0;

  // Code-only neighbor lookups for call-position tests.
  CodeView v(tokens);
  size_t code_i = 0;  // Index into v of the current code token.

  auto in_hot_function = [&]() {
    for (const BraceContext& c : stack) {
      if (c.is_function && c.hot_path) return true;
    }
    return false;
  };
  auto innermost_function = [&]() -> BraceContext* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->is_function) return &*it;
    }
    return nullptr;
  };

  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kComment) {
      if (t.text.find(kHotMarker) != std::string::npos) {
        next_function_hot = true;
      }
      continue;
    }
    if (t.kind == TokenKind::kPreprocessor) continue;

    // t is v.at(code_i) here.
    if (t.kind == TokenKind::kPunct && t.text == "(") ++paren_depth;
    if (t.kind == TokenKind::kPunct && t.text == ")") --paren_depth;
    if (next_function_hot && t.kind == TokenKind::kPunct && t.text == ";" &&
        paren_depth == 0) {
      // The marked signature ended in a declaration — the marker belongs on
      // the definition, so an armed header comment never leaks onto an
      // unrelated later body.
      next_function_hot = false;
    }
    if (t.kind == TokenKind::kPunct && t.text == "{") {
      BraceContext ctx;
      ctx.is_function = OpensFunctionBody(v, code_i);
      if (ctx.is_function) {
        ctx.hot_path = next_function_hot;
        next_function_hot = false;
      }
      stack.push_back(ctx);
    } else if (t.kind == TokenKind::kPunct && t.text == "}") {
      if (!stack.empty()) stack.pop_back();
    } else if (t.kind == TokenKind::kIdentifier) {
      // Durability: any rename must follow an fsync within the same
      // function — tmp-write + rename without fsync is exactly the torn
      // window the journal/store recovery tests kill the process inside.
      if (durability_in_scope) {
        bool is_fsync_call =
            (t.text == "fsync" || t.text == "FaultFsync") &&
            code_i + 1 < v.size() && v.IsPunct(code_i + 1, "(");
        bool is_rename_call =
            (t.text == "rename" || t.text == "FaultRename") &&
            IsBareOrStdCall(v, code_i);
        if (is_fsync_call) {
          if (BraceContext* fn = innermost_function()) fn->fsync_seen = true;
        } else if (is_rename_call) {
          BraceContext* fn = innermost_function();
          if (fn == nullptr || !fn->fsync_seen) {
            out->push_back(
                {path, t.line, "dur-fsync-before-rename",
                 "'" + t.text +
                     "' with no fsync earlier in this function; publish via "
                     "write + fsync + rename (or AtomicWriteFile) so a crash "
                     "can never expose an unsynced destination"});
          }
        }
      }

      // Hot path: allocation inside a wf-hot-path-marked body defeats the
      // zero-alloc-after-warmup guarantee the workspace arenas exist for.
      if (in_hot_function()) {
        if (t.text == "new" || t.text == "make_unique" ||
            t.text == "make_shared") {
          out->push_back(
              {path, t.line, "hot-path-alloc",
               "'" + t.text +
                   "' inside a wf-hot-path function; hot paths must reuse "
                   "the workspace arena (grow-only buffers), not allocate "
                   "per call"});
        } else if (ConstructsAllocatingType(v, code_i)) {
          out->push_back(
              {path, t.line, "hot-path-alloc",
               (t.text == "Matrix" ? std::string("Matrix") : "std::" + t.text) +
                   " constructed inside a wf-hot-path function; hot paths "
                   "must reuse the workspace arena, not build fresh buffers "
                   "per call"});
        }
      }
    }
    ++code_i;
  }
}

// --- rule: dur-ofstream-seam -------------------------------------------------

void CheckDurOfstreamSeam(const std::string& path, const CodeView& v,
                          std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!v.IsIdent(i, "ofstream")) continue;
    out->push_back(
        {path, v.at(i).line, "dur-ofstream-seam",
         "std::ofstream in service/platform code; journal bytes must be "
         "written through AtomicWriteFile or the SessionJournal writer so "
         "crashes land on a recoverable format"});
  }
}

// --- rule: conc-thread-seam / conc-detach ------------------------------------

void CheckConcThread(const std::string& path, bool thread_rule_in_scope,
                     const CodeView& v, std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    if (thread_rule_in_scope && t.text == "thread" && i >= 2 &&
        v.IsPunct(i - 1, "::") && v.IsIdent(i - 2, "std")) {
      out->push_back(
          {path, t.line, "conc-thread-seam",
           "std::thread in src/; the library runs on its callers' threads, "
           "so thread counts stay bounded and bit-determinism contracts "
           "hold (the session driver is the one suppressed exception)"});
    }
    if (t.text == "detach" && i >= 1 &&
        (v.IsPunct(i - 1, ".") || v.IsPunct(i - 1, "->")) &&
        i + 1 < v.size() && v.IsPunct(i + 1, "(")) {
      out->push_back({path, t.line, "conc-detach",
                      "detach() orphans a thread past shutdown; every thread "
                      "must be joined (session drivers join on drain)"});
    }
  }
}

// --- rule: obs-clock-seam ----------------------------------------------------

// Monotonic wall-clock reads are confined to src/obs/ (obs::NowNs /
// obs::NowMs / obs::DeadlineAfterMs in src/obs/clock.h). One seam means
// instrumented code provably reads zero clocks when recording is off —
// which is what keeps a metrics-off run byte-identical to a build without
// the observability plane — and gives tests a single point to swap the
// trace clock. steady_clock is flagged anywhere it appears (types leak
// through auto and typedefs, so call-position-only matching misses most
// uses); clock_gettime only in call position (the identifier also names
// struct fields in third-party headers).
void CheckObsClockSeam(const std::string& path, const CodeView& v,
                       std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    const Token& t = v.at(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "steady_clock") {
      if (i > 0 && v.at(i - 1).kind == TokenKind::kPunct &&
          (v.at(i - 1).text == "." || v.at(i - 1).text == "->")) {
        continue;  // Member access on an unrelated object.
      }
      out->push_back(
          {path, t.line, "obs-clock-seam",
           "steady_clock outside src/obs/; monotonic time is read through "
           "the obs clock seam (obs::NowNs / obs::NowMs / "
           "obs::DeadlineAfterMs, src/obs/clock.h) so metrics-off runs "
           "provably never touch the clock"});
    } else if (t.text == "clock_gettime" && IsBareOrStdCall(v, i)) {
      out->push_back(
          {path, t.line, "obs-clock-seam",
           "raw clock_gettime outside src/obs/; monotonic time is read "
           "through the obs clock seam (obs::NowNs / obs::NowMs, "
           "src/obs/clock.h) so metrics-off runs provably never touch the "
           "clock"});
    }
  }
}

// --- rule: conc-lock-order-comment -------------------------------------------

void CheckLockOrderComment(const std::string& path,
                           const std::vector<Token>& tokens,
                           std::vector<Diagnostic>* out) {
  CodeView v(tokens);
  for (size_t i = 0; i < v.size(); ++i) {
    // Match the member/global declaration shape `std::mutex name_ ;` —
    // lock_guard/unique_lock uses have '<' or '>' adjacent instead.
    if (!(v.IsIdent(i, "mutex") && i >= 2 && v.IsPunct(i - 1, "::") &&
          v.IsIdent(i - 2, "std"))) {
      continue;
    }
    if (!(i + 2 < v.size() && v.at(i + 1).kind == TokenKind::kIdentifier &&
          v.IsPunct(i + 2, ";"))) {
      continue;
    }
    int decl_line = v.at(i).line;
    // Accept the tag on the declaration line itself or anywhere in the
    // contiguous comment block sitting directly above it: walk comments
    // bottom-up, growing the block while each one touches the line below.
    bool documented = false;
    int floor = decl_line;
    for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
      const Token& t = *it;
      if (t.kind != TokenKind::kComment) continue;
      if (t.line > decl_line) continue;
      int comment_end_line =
          t.line +
          static_cast<int>(std::count(t.text.begin(), t.text.end(), '\n'));
      if (comment_end_line < floor - 1) break;  // Gap: block ended.
      floor = t.line;
      if (t.text.find("lock-order:") != std::string::npos) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      out->push_back(
          {path, decl_line, "conc-lock-order-comment",
           "mutex member '" + v.at(i + 1).text +
               "' has no `lock-order:` comment; session_manager/transport "
               "mutexes must document their place in the lock ordering "
               "(what may be held when acquiring, what must not)"});
    }
  }
}

}  // namespace

// --- registry ----------------------------------------------------------------

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"det-banned-call",
       "no ambient entropy (rand/time/getenv/...) in the search core"},
      {"det-rng-seed",
       "Rng seeds must be counter-derived (seam: src/core/proposal.cc)"},
      {"io-syscall-seam",
       "raw syscalls only inside socket.cc / fs_faults.cc seams"},
      {"dur-fsync-before-rename",
       "every rename is preceded in-function by an fsync"},
      {"dur-ofstream-seam",
       "service/platform writes go through AtomicWriteFile or the durable "
       "writers"},
      {"conc-thread-seam", "no std::thread in src/ outside suppressed drivers"},
      {"conc-detach", "no detached threads, ever"},
      {"conc-lock-order-comment",
       "session_manager/transport/obs mutex members document lock ordering"},
      {"obs-clock-seam",
       "steady_clock/clock_gettime only inside the src/obs/ clock seam"},
      {"hot-path-alloc",
       "no allocation inside wf-hot-path-marked functions"},
      {"bad-suppression",
       "wf-lint suppressions must name a known rule"},
      {"unused-suppression",
       "suppressions that match no diagnostic must be deleted"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& rule_id) {
  for (const RuleInfo& r : AllRules()) {
    if (r.id == rule_id) return true;
  }
  return false;
}

bool RuleAppliesTo(const std::string& rule_id, const std::string& path) {
  if (rule_id == "det-banned-call") return InDeterminismDirs(path);
  if (rule_id == "det-rng-seed") {
    return InDeterminismDirs(path) && path != "src/core/proposal.cc";
  }
  if (rule_id == "io-syscall-seam") {
    return StartsWith(path, "src/") && !IsSyscallSeamFile(path);
  }
  if (rule_id == "dur-fsync-before-rename") {
    // The seam itself (header + impl) declares/wraps the raw calls.
    return InDurabilityDirs(path) && !StartsWith(path, "src/platform/fs_faults.");
  }
  if (rule_id == "dur-ofstream-seam") {
    return InDurabilityDirs(path) && !IsDurableWriterFile(path);
  }
  if (rule_id == "conc-thread-seam" || rule_id == "conc-detach") {
    return StartsWith(path, "src/");
  }
  if (rule_id == "conc-lock-order-comment") return InLockOrderScope(path);
  if (rule_id == "obs-clock-seam") {
    return StartsWith(path, "src/") && !StartsWith(path, "src/obs/");
  }
  if (rule_id == "hot-path-alloc") return StartsWith(path, "src/");
  // Engine-level rules apply everywhere.
  return rule_id == "bad-suppression" || rule_id == "unused-suppression";
}

std::vector<Diagnostic> RunRules(const std::string& path,
                                 const std::vector<Token>& tokens) {
  std::vector<Diagnostic> out;
  CodeView v(tokens);

  if (RuleAppliesTo("det-banned-call", path)) CheckDetBannedCall(path, v, &out);
  if (RuleAppliesTo("det-rng-seed", path)) CheckDetRngSeed(path, v, &out);
  if (RuleAppliesTo("io-syscall-seam", path)) CheckIoSyscallSeam(path, v, &out);
  if (RuleAppliesTo("dur-ofstream-seam", path)) {
    CheckDurOfstreamSeam(path, v, &out);
  }
  CheckConcThread(path, RuleAppliesTo("conc-thread-seam", path), v, &out);
  if (!RuleAppliesTo("conc-detach", path)) {
    // conc-detach shares CheckConcThread's walk; drop its findings when out
    // of scope (never happens today — it covers all of src/).
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const Diagnostic& d) {
                               return d.rule == "conc-detach";
                             }),
              out.end());
  }
  if (RuleAppliesTo("conc-lock-order-comment", path)) {
    CheckLockOrderComment(path, tokens, &out);
  }
  if (RuleAppliesTo("obs-clock-seam", path)) CheckObsClockSeam(path, v, &out);
  CheckFunctionContextRules(path, tokens,
                            RuleAppliesTo("dur-fsync-before-rename", path),
                            &out);
  if (!RuleAppliesTo("hot-path-alloc", path)) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const Diagnostic& d) {
                               return d.rule == "hot-path-alloc";
                             }),
              out.end());
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace analyze
}  // namespace wayfinder
