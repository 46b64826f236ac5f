// wf-lint engine + rule-family tests (src/analyze/).
//
// Matrix per rule family: a known-bad fixture fires, the corresponding
// known-good fixture is silent, suppressions are honored, and suppressions
// that fail to name a (known) rule are rejected. The Historical* tests
// reproduce real pre-sweep violations harvested from this repo's git
// history — re-introducing any of them must fail CI.
//
// Fixture paths are repo-relative pretend-paths: rule scoping keys off the
// path, so a fixture can live anywhere in the tree it wants to test.
#include "src/analyze/wf_lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analyze/lexer.h"

namespace wayfinder {
namespace analyze {
namespace {

std::vector<Diagnostic> Lint(const std::string& path, const std::string& src) {
  return LintSource(path, src);
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// Builds a suppression marker without embedding the literal sequence in
// this file (which is itself linted).
std::string Allow(const std::string& rules, const std::string& why) {
  return std::string("// wf-lint: ") + "allow(" + rules + ") — " + why;
}

// --- lexer ------------------------------------------------------------------

TEST(Lexer, CommentsStringsAndRawStringsAreOpaque) {
  std::string src =
      "// rand() in a comment\n"
      "/* rand() in a block\n   comment */\n"
      "const char* s = \"rand()\";\n"
      "const char* r = R\"(rand() time())\";\n"
      "char c = 'r';\n";
  auto tokens = Lex(src);
  int ident_rand = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "rand") ++ident_rand;
  }
  EXPECT_EQ(ident_rand, 0);
  // And the whole fixture is silent even in the strictest directory.
  EXPECT_TRUE(Lint("src/core/fixture.cc", src).empty());
}

TEST(Lexer, TracksLinesThroughMultilineConstructs) {
  std::string src = "/* a\nb\nc */\nint x;\nR\"(1\n2)\";\nint y;\n";
  auto tokens = Lex(src);
  // `int x` lands on line 4; `int y` on line 7.
  int x_line = 0, y_line = 0;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text == "int") {
      if (tokens[i + 1].text == "x") x_line = tokens[i + 1].line;
      if (tokens[i + 1].text == "y") y_line = tokens[i + 1].line;
    }
  }
  EXPECT_EQ(x_line, 4);
  EXPECT_EQ(y_line, 7);
}

TEST(Lexer, PreprocessorDirectivesAreSingleTokens) {
  auto tokens = Lex("#include <unistd.h>\nint v = 1;\n#define W write\n");
  int pp = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kPreprocessor) ++pp;
  }
  EXPECT_EQ(pp, 2);
  // The include of unistd.h / the define naming `write` never reach rules.
  EXPECT_TRUE(Lint("src/core/fixture.cc",
                  "#include <unistd.h>\n#define DO_IT write(fd, b, n)\n")
                  .empty());
}

// --- determinism: det-banned-call -------------------------------------------

TEST(DetBannedCall, FiresOnAmbientEntropyInCore) {
  std::string bad =
      "int f() {\n"
      "  int a = rand();\n"
      "  srand(42);\n"
      "  long t = time(nullptr);\n"
      "  const char* e = getenv(\"HOME\");\n"
      "  std::random_device rd;\n"
      "  auto n = std::chrono::system_clock::now();\n"
      "  return a;\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "det-banned-call"), 6) << FormatText(diags);
}

TEST(DetBannedCall, SilentOnSeededRngAndMemberNames) {
  std::string good =
      "double f(Rng& rng, Widget& w) {\n"
      "  double u = rng.Uniform();\n"
      "  w.time(3);\n"          // Member call named `time` is not ::time.
      "  int t = obj->rand();\n"  // Member access, not libc.
      "  return u;\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/fixture.cc", good).empty());
}

TEST(DetBannedCall, OutOfScopeDirsAreExempt) {
  // The service plane may read the environment (flag parsing etc.).
  std::string src = "const char* e = std::getenv(\"WFD_SOCK\");\n";
  EXPECT_TRUE(Lint("src/service/fixture.cc", src).empty());
}

TEST(DetBannedCall, HistoricalKernelsGetenvFires) {
  // Harvested from src/nn/kernels.cc (PR 2): the WF_KERNELS backend
  // override read the environment in a determinism directory. It survives
  // in-tree only under a named suppression.
  std::string historical =
      "KernelBackend ResolveAuto() {\n"
      "  if (const char* env = std::getenv(\"WF_KERNELS\")) {\n"
      "    return KernelBackend::kPortable;\n"
      "  }\n"
      "  return Detect();\n"
      "}\n";
  auto diags = Lint("src/nn/fixture.cc", historical);
  EXPECT_EQ(CountRule(diags, "det-banned-call"), 1);
}

// --- determinism: det-rng-seed ----------------------------------------------

TEST(DetRngSeed, FiresOnAdHocSeed) {
  std::string bad = "void f() {\n  Rng rng(42);\n  Use(rng);\n}\n";
  auto diags = Lint("src/search/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "det-rng-seed"), 1);
}

TEST(DetRngSeed, SilentOnDerivedSeeds) {
  std::string good =
      "void f(uint64_t seed, size_t i) {\n"
      "  Rng a(seed);\n"
      "  Rng b(HashCombine(seed, i));\n"
      "  Rng c(options_.seed);\n"
      "  Rng d = parent.Fork();\n"
      "  Rng plain;\n"           // Declaration without an ad-hoc seed.
      "  const Rng& ref = a;\n"  // Reference, not a construction.
      "}\n"
      "Rng MakeStream();\n";  // Function declaration returning Rng.
  auto diags = Lint("src/search/fixture.cc", good);
  EXPECT_EQ(CountRule(diags, "det-rng-seed"), 0) << FormatText(diags);
}

TEST(DetRngSeed, ProposalSeamIsExempt) {
  std::string seam = "Rng StreamFor() {\n  return Rng(0x1234);\n}\n";
  EXPECT_EQ(CountRule(Lint("src/core/proposal.cc", seam), "det-rng-seed"), 0);
  EXPECT_EQ(CountRule(Lint("src/core/fixture.cc", seam), "det-rng-seed"), 1);
}

// --- syscall discipline: io-syscall-seam ------------------------------------

TEST(IoSyscallSeam, FiresOnRawSyscallsOutsideSeams) {
  std::string bad =
      "void f(int fd) {\n"
      "  char b[8];\n"
      "  ::read(fd, b, 8);\n"
      "  write(fd, b, 8);\n"
      "  ::poll(nullptr, 0, 0);\n"
      "  std::rename(\"a\", \"b\");\n"
      "  unlink(\"a\");\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "io-syscall-seam"), 5) << FormatText(diags);
}

TEST(IoSyscallSeam, SeamFilesAndMemberCallsAreExempt) {
  std::string raw = "void f(int fd) {\n  ::write(fd, \"x\", 1);\n}\n";
  EXPECT_TRUE(Lint("src/util/socket.cc", raw).empty());
  EXPECT_TRUE(Lint("src/platform/fs_faults.cc", raw).empty());
  std::string member =
      "void g(std::ostream& out, Frame& f) {\n"
      "  out.write(f.data(), f.size());\n"
      "  assembler->accept(f);\n"
      "  fs::rename(a, b);\n"  // Foreign-namespace qualification.
      "}\n";
  EXPECT_TRUE(Lint("src/service/fixture.cc", member).empty());
}

TEST(IoSyscallSeam, HistoricalTrialStoreCompactionFires) {
  // Harvested from src/service/trial_store.cc at PR 6 (pre fs-fault seam):
  // compaction fsync'd and renamed with raw calls, so fault plans could not
  // reach it. PR 8 routed it through FaultFsync/FaultRename.
  std::string historical =
      "bool CompactOne(std::FILE* out, const std::string& tmp_path,\n"
      "                const std::string& path) {\n"
      "  bool wrote = std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;\n"
      "  if (!wrote || std::rename(tmp_path.c_str(), path.c_str()) != 0) {\n"
      "    return false;\n"
      "  }\n"
      "  return true;\n"
      "}\n";
  auto diags = Lint("src/service/fixture.cc", historical);
  EXPECT_EQ(CountRule(diags, "io-syscall-seam"), 2) << FormatText(diags);
  // The fsync does precede the rename, so the durability rule stays quiet.
  EXPECT_EQ(CountRule(diags, "dur-fsync-before-rename"), 0);
}

// --- durability: dur-fsync-before-rename ------------------------------------

TEST(DurFsyncBeforeRename, FiresOnRenameWithoutFsync) {
  std::string bad =
      "bool Publish(const std::string& tmp, const std::string& dst) {\n"
      "  WriteAll(tmp);\n"
      "  return FaultRename(tmp, dst);\n"
      "}\n";
  auto diags = Lint("src/service/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "dur-fsync-before-rename"), 1);
}

TEST(DurFsyncBeforeRename, SilentWhenFsyncPrecedes) {
  std::string good =
      "bool Publish(std::FILE* f, const std::string& tmp,\n"
      "             const std::string& dst) {\n"
      "  if (!FaultFsync(fileno(f))) return false;\n"
      "  return FaultRename(tmp, dst);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/service/fixture.cc", good).empty());
}

TEST(DurFsyncBeforeRename, ControlFlowBlocksStayInFunctionScope) {
  // The fsync sits in an if-block, the rename in a loop — same function, so
  // the obligation is met (brace tracking must not treat `if (...) {` as a
  // new function).
  std::string good =
      "bool Publish(std::FILE* f, const std::string& tmp,\n"
      "             const std::string& dst) {\n"
      "  if (f != nullptr) {\n"
      "    if (!FaultFsync(fileno(f))) return false;\n"
      "  }\n"
      "  for (int i = 0; i < 3; ++i) {\n"
      "    if (FaultRename(tmp, dst)) return true;\n"
      "  }\n"
      "  return false;\n"
      "}\n";
  EXPECT_TRUE(Lint("src/service/fixture.cc", good).empty());
}

// --- durability: dur-ofstream-seam ------------------------------------------

TEST(DurOfstreamSeam, FiresOutsideDurableWriters) {
  std::string bad =
      "void Dump(const std::string& path) {\n"
      "  std::ofstream out(path);\n"
      "  out << \"data\";\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/service/fixture.cc", bad), "dur-ofstream-seam"),
            1);
  // The durable writers and non-durability dirs are exempt.
  EXPECT_TRUE(Lint("src/service/session_journal.cc", bad).empty());
  EXPECT_TRUE(Lint("src/nn/fixture.cc", bad).empty());
}

TEST(DurOfstreamSeam, HistoricalSeedCheckpointFires) {
  // Harvested from src/platform/checkpoint.cc at the seed: checkpoints were
  // written straight through std::ofstream — no tmp file, no fsync, no
  // atomic rename — so a crash mid-write tore the checkpoint. PR 8 moved it
  // onto AtomicWriteFile.
  std::string historical =
      "bool SaveCheckpoint(const History& history, const std::string& path) {\n"
      "  std::ofstream out(path);\n"
      "  if (!out) {\n"
      "    return false;\n"
      "  }\n"
      "  out.precision(17);\n"
      "  out << \"wayfinder-checkpoint v1\\n\";\n"
      "  return true;\n"
      "}\n";
  auto diags = Lint("src/platform/checkpoint.cc", historical);
  EXPECT_EQ(CountRule(diags, "dur-ofstream-seam"), 1);
}

// --- concurrency: conc-thread-seam / conc-detach ----------------------------

TEST(ConcThread, FiresAnywhereUnderSrc) {
  // No file under src/ is exempt; outside src/ the rule does not apply.
  std::string bad =
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  t.join();\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/fixture.cc", bad), "conc-thread-seam"), 1);
  EXPECT_EQ(CountRule(Lint("src/util/fixture.cc", bad), "conc-thread-seam"), 1);
  EXPECT_TRUE(Lint("tools/fixture.cpp", bad).empty());
}

TEST(ConcThread, HistoricalSessionDriverFires) {
  // Harvested from src/service/session_manager.cc (PR 5): the per-session
  // driver thread — the one std::thread the design intends, which is why it
  // carries a named suppression in-tree rather than a rewrite.
  std::string historical =
      "void SessionManager::StartEligible() {\n"
      "  managed->driver = std::thread(&SessionManager::Drive, this,\n"
      "                                managed.get());\n"
      "}\n";
  auto diags = Lint("src/service/fixture.cc", historical);
  EXPECT_EQ(CountRule(diags, "conc-thread-seam"), 1);
}

TEST(ConcDetach, FiresAnywhere) {
  std::string bad = "void f(std::thread& t) {\n  t.detach();\n}\n";
  EXPECT_EQ(CountRule(Lint("src/util/fixture.cc", bad), "conc-detach"), 1);
  std::string good = "void f(std::thread& t) {\n  t.join();\n}\n";
  EXPECT_EQ(CountRule(Lint("src/util/fixture.cc", good), "conc-detach"), 0);
}

// --- concurrency: conc-lock-order-comment -----------------------------------

TEST(ConcLockOrder, FiresOnUndocumentedMutexMember) {
  // Harvested shape: src/transport/event_loop.h's posted_mu_ pre-sweep.
  std::string bad =
      "class TransportServer {\n"
      " private:\n"
      "  std::mutex posted_mu_;\n"
      "};\n";
  EXPECT_EQ(
      CountRule(Lint("src/transport/event_loop.h", bad), "conc-lock-order-comment"),
      1);
  // Out-of-scope subsystems document locking in prose instead.
  EXPECT_TRUE(Lint("src/util/fixture.h", bad).empty());
}

TEST(ConcLockOrder, CommentBlockAboveOrTrailingSatisfies) {
  std::string good =
      "class TransportServer {\n"
      " private:\n"
      "  // lock-order: leaf — held only to swap the posted queue; never\n"
      "  // while calling out.\n"
      "  std::mutex posted_mu_;\n"
      "  std::mutex tx_mu_;  // lock-order: after posted_mu_.\n"
      "};\n";
  EXPECT_TRUE(Lint("src/transport/event_loop.h", good).empty());
  // lock_guard/unique_lock *uses* are not declarations and never flagged.
  std::string use =
      "void f() {\n  std::lock_guard<std::mutex> lock(mu_);\n}\n";
  EXPECT_TRUE(Lint("src/transport/event_loop.cc", use).empty());
}

// --- observability: obs-clock-seam -------------------------------------------

TEST(ObsClockSeam, FiresOnRawClockGettimeOutsideObs) {
  // Harvested from src/transport/event_loop.cc (PR 7): the idle-sweep
  // timestamp helper, rerouted through obs::NowMs() in PR 10.
  std::string bad =
      "int64_t NowMs() {\n"
      "  struct timespec ts;\n"
      "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
      "  return ts.tv_sec * 1000 + ts.tv_nsec / 1000000;\n"
      "}\n";
  EXPECT_EQ(
      CountRule(Lint("src/transport/event_loop.cc", bad), "obs-clock-seam"), 1);
  // The seam itself is exempt — that is where the clock lives.
  EXPECT_TRUE(Lint("src/obs/clock.cc", bad).empty());
}

TEST(ObsClockSeam, FiresOnSteadyClockTypeUse) {
  // Harvested from src/util/sim_clock.cc (PR 1): WallTimer's direct
  // steady_clock reads, rerouted through obs::NowNs() in PR 10. The type
  // name is flagged anywhere (not just call position): clock types leak
  // through auto and member declarations.
  std::string historical =
      "double WallTimer::Seconds() const {\n"
      "  auto now = std::chrono::steady_clock::now();\n"
      "  return std::chrono::duration<double>(now - start_).count();\n"
      "}\n";
  auto diags = Lint("src/util/sim_clock.cc", historical);
  EXPECT_EQ(CountRule(diags, "obs-clock-seam"), 1) << FormatText(diags);
}

TEST(ObsClockSeam, SeamRouteAndMemberAccessAreSilent) {
  std::string good =
      "bool WaitDone(int64_t timeout_ms) {\n"
      "  auto deadline = obs::DeadlineAfterMs(timeout_ms);\n"
      "  return obs::NowNs() < 0;\n"
      "}\n";
  EXPECT_TRUE(Lint("src/service/session_manager.cc", good).empty());
  // A member that merely shares the clock's name is someone else's object.
  std::string member = "void f(T& t) {\n  t.steady_clock = 1;\n}\n";
  EXPECT_TRUE(Lint("src/core/fixture.cc", member).empty());
}

TEST(ObsDeterminism, BannedCallsCoverObsDir) {
  // src/obs/ sits inside instrumented search-core code, so the ambient-
  // entropy bans extend to it: its one sanctioned clock is steady_clock.
  std::string bad =
      "uint64_t Stamp() {\n"
      "  return static_cast<uint64_t>(time(nullptr));\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/obs/metrics.cc", bad), "det-banned-call"), 1);
}

TEST(ObsLockOrder, ObsMutexMembersNeedComments) {
  std::string bad =
      "class TraceRing {\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "};\n";
  EXPECT_EQ(
      CountRule(Lint("src/obs/trace.h", bad), "conc-lock-order-comment"), 1);
}

// --- hot path: hot-path-alloc -----------------------------------------------

// Assembles the hot-path marker (word, colon) without this comment or the
// string literals below becoming markers themselves.
std::string HotMarker() { return std::string("// wf-hot-path") + ": test\n"; }

TEST(HotPathAlloc, FiresOnAllocationInMarkedFunction) {
  std::string bad = HotMarker() +
                    "void Forward(Workspace& ws, size_t n) {\n"
                    "  std::vector<double> tmp(n);\n"
                    "  auto p = std::make_unique<double[]>(n);\n"
                    "  double* q = new double[n];\n"
                    "  Use(tmp, p, q);\n"
                    "}\n";
  auto diags = Lint("src/nn/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "hot-path-alloc"), 3) << FormatText(diags);
}

TEST(HotPathAlloc, SeedStyleNaiveLayerFires) {
  // Models the seed's textbook dense layer (one fresh buffer per op) — the
  // allocation pattern PR 1 replaced with the workspace arena. Marked hot,
  // it must fire; that is exactly the regression the arena tests pin
  // dynamically via workspace_grow_count().
  std::string historical =
      HotMarker() +
      "std::vector<double> DenseForward(const std::vector<double>& x,\n"
      "                                 const Weights& w) {\n"
      "  std::vector<double> out(w.rows);\n"
      "  MatVec(w, x, &out);\n"
      "  return out;\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/nn/fixture.cc", historical), "hot-path-alloc"),
            1);
}

TEST(HotPathAlloc, UnmarkedFunctionsAndReferencesAreSilent) {
  std::string good =
      "void Cold(size_t n) {\n"
      "  std::vector<double> tmp(n);\n"  // No marker: allowed.
      "  Use(tmp);\n"
      "}\n" +
      HotMarker() +
      "void Hot(Workspace& ws) {\n"
      "  const std::vector<double>& row = ws.rows[0];\n"  // Reference: fine.
      "  std::vector<double>* ptr = &ws.scratch;\n"       // Pointer: fine.
      "  Use(row, ptr);\n"
      "}\n";
  auto diags = Lint("src/nn/fixture.cc", good);
  EXPECT_EQ(CountRule(diags, "hot-path-alloc"), 0) << FormatText(diags);
}

TEST(HotPathAlloc, FiresOnEveryAllocatingType) {
  // A declaration or a temporary of each allocating type: Matrix (plain and
  // qualified), std::string, std::map, std::unordered_map, std::function,
  // and a thread_local container.
  std::string bad = HotMarker() +
                    "void Step(Workspace& ws) {\n"
                    "  Matrix tmp(4, 4);\n"
                    "  wayfinder::Matrix copy = ws.h1;\n"
                    "  std::string s(\"x\");\n"
                    "  std::map<int, double> by_id;\n"
                    "  std::unordered_map<std::string, int> index;\n"
                    "  std::function<void(int)> callback = [](int) {};\n"
                    "  thread_local std::vector<double> scratch;\n"
                    "  Use(Matrix(2, 2), std::string{\"y\"});\n"
                    "}\n";
  auto diags = Lint("src/nn/fixture.cc", bad);
  EXPECT_EQ(CountRule(diags, "hot-path-alloc"), 9) << FormatText(diags);
}

TEST(HotPathAlloc, ReferencesPointersAndNamesOfAllocatingTypesAreSilent) {
  std::string good = HotMarker() +
                     "size_t Step(const Matrix& x, Matrix* out, const std::string& name) {\n"
                     "  const Matrix& h1 = x;\n"
                     "  Matrix* slot = out;\n"
                     "  std::string_view view = name;\n"
                     "  const std::map<int, double>& table = Table();\n"
                     "  std::function<void()>* hook = nullptr;\n"
                     "  size_t npos = std::string::npos;\n"
                     "  Rng rng = Matrix::Seed(h1.rows());\n"
                     "  auto f = [&]() -> Matrix& { return *slot; };\n"
                     "  return ws.Matrix + npos + Use(view, table, hook, rng, f);\n"
                     "}\n";
  auto diags = Lint("src/nn/fixture.cc", good);
  EXPECT_EQ(CountRule(diags, "hot-path-alloc"), 0) << FormatText(diags);
}

TEST(HotPathAlloc, MarkerOnDeclarationDoesNotLeak) {
  // A marker above a *declaration* must not arm the next unrelated body.
  std::string src = HotMarker() +
                    "void Forward(const Matrix& x);\n"
                    "void Helper(size_t n) {\n"
                    "  std::vector<double> tmp(n);\n"
                    "  Use(tmp);\n"
                    "}\n";
  EXPECT_EQ(CountRule(Lint("src/nn/fixture.cc", src), "hot-path-alloc"), 0);
}

// --- suppressions ------------------------------------------------------------

TEST(Suppression, TrailingAndStandaloneAreHonored) {
  std::string trailing =
      "void f() {\n"
      "  int a = rand();  " + Allow("det-banned-call", "fixture") + "\n"
      "  Use(a);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/fixture.cc", trailing).empty());

  std::string standalone =
      "void f() {\n"
      "  " + Allow("det-banned-call", "fixture") + "\n"
      "  int a = rand();\n"
      "  Use(a);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/fixture.cc", standalone).empty());
}

TEST(Suppression, OnlyNamedRuleIsSuppressed) {
  // The suppression names det-rng-seed but the line violates
  // det-banned-call: the violation must survive and the suppression is
  // reported unused.
  std::string src =
      "void f() {\n"
      "  int a = rand();  " + Allow("det-rng-seed", "wrong rule") + "\n"
      "  Use(a);\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", src);
  EXPECT_EQ(CountRule(diags, "det-banned-call"), 1);
  EXPECT_EQ(CountRule(diags, "unused-suppression"), 1);
}

TEST(Suppression, UnknownRuleIsRejected) {
  std::string src =
      "void f() {\n"
      "  int a = rand();  " + Allow("no-such-rule", "typo") + "\n"
      "  Use(a);\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", src);
  EXPECT_EQ(CountRule(diags, "bad-suppression"), 1);
  // And the underlying violation still fires — a bad marker never silences.
  EXPECT_EQ(CountRule(diags, "det-banned-call"), 1);
}

TEST(Suppression, EmptyAllowListIsRejected) {
  std::string src =
      "void f() {\n"
      "  int a = rand();  " + Allow("", "names nothing") + "\n"
      "  Use(a);\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", src);
  EXPECT_EQ(CountRule(diags, "bad-suppression"), 1);
  EXPECT_EQ(CountRule(diags, "det-banned-call"), 1);
}

TEST(Suppression, DeletingALoadBearingSuppressionResurfaces) {
  // The acceptance property in one unit: with the suppression the fixture
  // is clean; with the marker line deleted the violation fails the lint.
  std::string with =
      "void f() {\n"
      "  " + Allow("det-banned-call", "pinned fixture") + "\n"
      "  srand(7);\n"
      "}\n";
  std::string without = "void f() {\n  srand(7);\n}\n";
  EXPECT_TRUE(Lint("src/core/fixture.cc", with).empty());
  EXPECT_EQ(CountRule(Lint("src/core/fixture.cc", without), "det-banned-call"),
            1);
}

TEST(Suppression, StaleSuppressionIsFlaggedUnused) {
  std::string src =
      "void f() {\n"
      "  " + Allow("det-banned-call", "nothing wrong below") + "\n"
      "  int a = 1;\n"
      "  Use(a);\n"
      "}\n";
  auto diags = Lint("src/core/fixture.cc", src);
  EXPECT_EQ(CountRule(diags, "unused-suppression"), 1);
}

TEST(Suppression, MultiRuleListCoversBoth) {
  std::string src =
      "void f() {\n"
      "  " + Allow("det-banned-call, det-rng-seed", "both on next line") + "\n"
      "  Rng rng(time(nullptr));\n"
      "  Use(rng);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/search/fixture.cc", src).empty());
}

// --- output formats ----------------------------------------------------------

TEST(Output, TextAndJsonCarryFileLineRule) {
  auto diags = Lint("src/core/fixture.cc", "int a = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  std::string text = FormatText(diags);
  EXPECT_NE(text.find("src/core/fixture.cc:1"), std::string::npos);
  EXPECT_NE(text.find("det-banned-call"), std::string::npos);
  std::string json = FormatJson(diags);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"by_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"det-banned-call\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST(Output, EmptyJsonIsWellFormed) {
  std::string json = FormatJson({});
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\": []"), std::string::npos);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, EveryRuleHasIdAndSummaryAndScopes) {
  const auto& rules = AllRules();
  ASSERT_GE(rules.size(), 11u);
  for (const auto& r : rules) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.summary.empty());
    EXPECT_TRUE(IsKnownRule(r.id));
  }
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
  // Spot-check the per-directory registry.
  EXPECT_TRUE(RuleAppliesTo("det-banned-call", "src/core/dtm.cc"));
  EXPECT_FALSE(RuleAppliesTo("det-banned-call", "src/service/wfd.cc"));
  EXPECT_FALSE(RuleAppliesTo("io-syscall-seam", "src/util/socket.cc"));
  EXPECT_TRUE(RuleAppliesTo("io-syscall-seam", "src/util/yaml.cc"));
  EXPECT_FALSE(RuleAppliesTo("det-rng-seed", "src/core/proposal.cc"));
  EXPECT_TRUE(RuleAppliesTo("conc-lock-order-comment",
                            "src/transport/event_loop.h"));
}

}  // namespace
}  // namespace analyze
}  // namespace wayfinder
