// Unit tests for fvcheck: each diagnostic has a positive fixture (every
// seeded violation caught) and a negative fixture (look-alikes stay clean),
// plus the wall-clock allowlist self-check over the real tree.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "index.h"
#include "lexer.h"

namespace fvcheck {
namespace {

#ifndef FVCHECK_TESTDATA_DIR
#error "build must define FVCHECK_TESTDATA_DIR"
#endif
#ifndef FVCHECK_SOURCE_ROOT
#error "build must define FVCHECK_SOURCE_ROOT"
#endif

/// Loads a fixture and analyzes it under a pretend repo-relative path (the
/// path decides which rules apply, e.g. exception bans under src/).
std::vector<Diagnostic> AnalyzeFixture(const std::string& fixture,
                                       const std::string& pretend_path,
                                       Options opts = Options()) {
  FileInput input;
  EXPECT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, fixture, &input))
      << "missing fixture " << fixture;
  input.path = pretend_path;
  return Analyze({input}, opts);
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

std::string Dump(const std::vector<Diagnostic>& diags) {
  std::string all;
  for (const auto& d : diags) {
    all += d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message + "\n";
  }
  return all;
}

TEST(LexerTest, TokensCommentsAndDirectives) {
  LexedFile lex = Lex(
      "/// doc line\n"
      "int x = 42;  // fvcheck:allow=banned-api,simtime-mixing\n"
      "/* block\n   spans lines */\n"
      "const char* s = \"rand() inside string\";\n"
      "// fvcheck:owner=pool\n"
      "auto r = R\"(raw \"string\" body)\";\n");
  EXPECT_EQ(lex.doc_lines.count(1), 1u);
  ASSERT_EQ(lex.allows.count(2), 1u);
  EXPECT_EQ(lex.allows.at(2).count("banned-api"), 1u);
  EXPECT_EQ(lex.allows.at(2).count("simtime-mixing"), 1u);
  EXPECT_EQ(lex.comment_lines.count(3), 1u);
  EXPECT_EQ(lex.comment_lines.count(4), 1u);
  EXPECT_EQ(lex.owner_pool_lines.count(6), 1u);
  // String contents never become identifier tokens.
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  // The raw string survives as a single string token.
  bool saw_raw = false;
  for (const Token& t : lex.tokens) {
    if (t.kind == Token::Kind::kString &&
        t.text.find("raw \"string\" body") != std::string::npos) {
      saw_raw = true;
    }
  }
  EXPECT_TRUE(saw_raw);
}

TEST(BannedApiTest, PositiveFixtureCatchesEveryClass) {
  auto diags = AnalyzeFixture("banned_api_bad.cc", "src/banned_api_bad.cc");
  // 3 randomness + 3 clock idents + 1 time() + 3 exception keywords
  // + 2 banned includes.
  EXPECT_EQ(CountRule(diags, kRuleBannedApi), 12) << [&] {
    std::string all;
    for (const auto& d : diags) all += d.message + "\n";
    return all;
  }();
}

TEST(BannedApiTest, NegativeFixtureStaysClean) {
  auto diags = AnalyzeFixture("banned_api_ok.cc", "src/banned_api_ok.cc");
  EXPECT_EQ(CountRule(diags, kRuleBannedApi), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(BannedApiTest, ExceptionsAllowedOutsideSrc) {
  auto diags =
      AnalyzeFixture("banned_api_bad.cc", "tests/banned_api_bad.cc");
  for (const auto& d : diags) {
    EXPECT_EQ(d.message.find("fallible paths"), std::string::npos)
        << "exception ban must not apply outside src/: " << d.message;
  }
}

TEST(BannedApiTest, WallClockAllowlistSkipsWallClockOnly) {
  Options opts;
  opts.wall_clock_allowlist = {"bench/perf_simcore.cc"};
  auto diags =
      AnalyzeFixture("banned_api_bad.cc", "bench/perf_simcore.cc", opts);
  for (const auto& d : diags) {
    EXPECT_EQ(d.message.find("wall-clock"), std::string::npos) << d.message;
  }
  // Randomness stays banned even in allowlisted files.
  EXPECT_GE(CountRule(diags, kRuleBannedApi), 3);
}

TEST(ThreadingBanTest, PositiveFixtureCatchesEveryClass) {
  auto diags = AnalyzeFixture("threading_bad.cc", "src/fv/threading_bad.cc");
  // 5 std::-qualified idents (thread, this_thread, mutex, atomic,
  // condition_variable) + 4 banned headers.
  EXPECT_EQ(CountRule(diags, kRuleBannedApi), 9) << [&] {
    std::string all;
    for (const auto& d : diags) all += d.message + "\n";
    return all;
  }();
}

TEST(ThreadingBanTest, NegativeFixtureStaysClean) {
  auto diags = AnalyzeFixture("threading_ok.cc", "src/fv/threading_ok.cc");
  EXPECT_EQ(CountRule(diags, kRuleBannedApi), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(UncheckedStatusTest, PositiveFixture) {
  auto diags =
      AnalyzeFixture("unchecked_status_bad.cc", "src/unchecked_status.cc");
  EXPECT_EQ(CountRule(diags, kRuleUncheckedStatus), 3);
}

TEST(UncheckedStatusTest, NegativeFixture) {
  auto diags =
      AnalyzeFixture("unchecked_status_ok.cc", "src/unchecked_status.cc");
  EXPECT_EQ(CountRule(diags, kRuleUncheckedStatus), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(SimtimeMixingTest, PositiveFixture) {
  auto diags = AnalyzeFixture("simtime_bad.cc", "src/simtime_bad.cc");
  EXPECT_EQ(CountRule(diags, kRuleSimtimeMixing), 3);
  EXPECT_EQ(CountRule(diags, kRuleBannedApi), 0)
      << "the chrono include is explicitly suppressed in the fixture";
}

TEST(SimtimeMixingTest, NegativeFixture) {
  auto diags = AnalyzeFixture("simtime_ok.cc", "src/simtime_ok.cc");
  EXPECT_EQ(CountRule(diags, kRuleSimtimeMixing), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(PoolEscapeTest, PositiveFixture) {
  auto diags = AnalyzeFixture("pool_escape_bad.cc", "src/pool_escape.cc");
  EXPECT_EQ(CountRule(diags, kRulePoolEscape), 2);
}

TEST(PoolEscapeTest, NegativeFixture) {
  auto diags = AnalyzeFixture("pool_escape_ok.cc", "src/pool_escape.cc");
  EXPECT_EQ(CountRule(diags, kRulePoolEscape), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(DocCoverageTest, PositiveFixture) {
  auto diags = AnalyzeFixture("doc_coverage_bad.h", "src/doc_coverage_bad.h");
  // class, function, alias, constant, enum — all undocumented.
  EXPECT_EQ(CountRule(diags, kRuleDocCoverage), 5);
}

TEST(DocCoverageTest, NegativeFixture) {
  auto diags = AnalyzeFixture("doc_coverage_ok.h", "src/doc_coverage_ok.h");
  EXPECT_EQ(CountRule(diags, kRuleDocCoverage), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(DocCoverageTest, OnlyAppliesToSrcAndToolsHeaders) {
  EXPECT_TRUE(
      AnalyzeFixture("doc_coverage_bad.h", "tests/doc_coverage_bad.h")
          .empty());
  EXPECT_TRUE(
      AnalyzeFixture("doc_coverage_bad.h", "src/doc_coverage_bad.cc")
          .empty());
}

TEST(HotPathAllocTest, PositiveFixtureCatchesEveryClass) {
  auto diags =
      AnalyzeFixture("hot_path_alloc_bad.cc", "src/sim/hot_path_alloc.cc");
  // 2 std::function (member + class-scope alias) + 3 growth calls.
  EXPECT_EQ(CountRule(diags, kRuleHotPathAlloc), 5) << [&] {
    std::string all;
    for (const auto& d : diags) all += d.message + "\n";
    return all;
  }();
}

TEST(HotPathAllocTest, NegativeFixtureStaysClean) {
  auto diags =
      AnalyzeFixture("hot_path_alloc_ok.cc", "src/net/hot_path_alloc.cc");
  EXPECT_EQ(CountRule(diags, kRuleHotPathAlloc), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(HotPathAllocTest, OnlyAppliesToHotPathDirs) {
  // The same violations outside src/sim, src/net, src/operators are fine:
  // cold-path code (fv control plane, tests, tools) may use std::function
  // and growing vectors freely.
  auto diags =
      AnalyzeFixture("hot_path_alloc_bad.cc", "src/fv/hot_path_alloc.cc");
  EXPECT_EQ(CountRule(diags, kRuleHotPathAlloc), 0)
      << (diags.empty() ? "" : diags[0].message);
}

TEST(SuppressionTest, AllowDirectiveSilencesNamedRuleOnly) {
  auto diags = AnalyzeFixture("suppressed_ok.cc", "src/suppressed.cc");
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);

  Options see_through;
  see_through.honor_suppressions = false;
  auto raw = AnalyzeFixture("suppressed_ok.cc", "src/suppressed.cc",
                            see_through);
  EXPECT_EQ(CountRule(raw, kRuleBannedApi), 3)
      << "suppressions must not hide violations from the audit mode";
}

// Satellite self-check (ISSUE 4): the wall-clock allowlist entries are the
// *only* wall-clock users in the tree. Runs banned-api over the real repo
// with an empty allowlist and suppression-audit mode, then asserts every
// wall-clock finding lands in an allowlisted file — so nobody can sneak a
// new chrono user in by editing neither the allowlist nor this test.
TEST(TreeSelfCheckTest, AllowlistedFilesAreTheOnlyWallClockUsers) {
  const std::string root = FVCHECK_SOURCE_ROOT;
  const std::vector<std::string> files = CollectSourceFiles(
      root, {"src", "tests", "bench", "tools", "examples"});
  ASSERT_GT(files.size(), 100u) << "tree walk found implausibly few files";

  std::vector<FileInput> inputs;
  for (const std::string& f : files) {
    FileInput input;
    ASSERT_TRUE(ReadFileInput(root, f, &input)) << f;
    inputs.push_back(std::move(input));
  }

  Options opts;
  opts.enabled_rules = {kRuleBannedApi};
  opts.wall_clock_allowlist.clear();
  opts.honor_suppressions = false;

  std::set<std::string> wall_clock_users;
  for (const Diagnostic& d : Analyze(inputs, opts)) {
    if (d.message.find("wall-clock") != std::string::npos) {
      wall_clock_users.insert(d.file);
    }
  }

  const std::vector<std::string> allow = Options::DefaultWallClockAllowlist();
  for (const std::string& user : wall_clock_users) {
    EXPECT_NE(std::find(allow.begin(), allow.end(), user), allow.end())
        << user << " uses wall-clock APIs but is not allowlisted";
  }
  // The detector provably sees the known users (guards against the check
  // rotting into a vacuous pass).
  EXPECT_EQ(wall_clock_users.count("bench/perf_simcore.cc"), 1u);
}

// Threading-ban self-check: with suppressions audited through, the only
// threading finding in the tree is src/common/logging.cc, whose single
// log-level atomic carries a named inline suppression. Nobody can sneak a
// thread or a mutex into src/, bench/, tests/, tools/ or examples/ without
// editing this test.
TEST(TreeSelfCheckTest, SimulationCodeIsSingleThreaded) {
  const std::string root = FVCHECK_SOURCE_ROOT;
  const std::vector<std::string> files = CollectSourceFiles(
      root, {"src", "tests", "bench", "tools", "examples"});
  ASSERT_GT(files.size(), 100u) << "tree walk found implausibly few files";

  std::vector<FileInput> inputs;
  for (const std::string& f : files) {
    FileInput input;
    ASSERT_TRUE(ReadFileInput(root, f, &input)) << f;
    inputs.push_back(std::move(input));
  }

  Options opts;
  opts.enabled_rules = {kRuleBannedApi};
  opts.honor_suppressions = false;

  std::set<std::string> threading_users;
  for (const Diagnostic& d : Analyze(inputs, opts)) {
    if (d.message.find("threading") != std::string::npos) {
      threading_users.insert(d.file);
    }
  }
  EXPECT_EQ(threading_users, std::set<std::string>{"src/common/logging.cc"});
}

// Satellite spot check (ISSUE 5): the replication layer is where a
// nondeterministic "fix" would be most tempting (jittered breaker reopens,
// background resync pacing), so its files are pinned determinism-clean by
// name: banned-api and simtime-mixing must report nothing, without relying
// on inline suppressions. The existence assertions keep the test from
// rotting into a vacuous pass if the files are ever moved.
TEST(TreeSelfCheckTest, ReplicationLayerIsDeterminismClean) {
  const std::string root = FVCHECK_SOURCE_ROOT;
  const std::vector<std::string> pinned = {
      "src/fv/replication.h",
      "src/fv/replication.cc",
      "src/fv/cluster.h",
      "src/fv/cluster.cc",
      "src/fv/sharding.h",  // the pool client: breakers, failover, mirroring
      "src/fv/sharding.cc",
  };
  std::vector<FileInput> inputs;
  for (const std::string& f : pinned) {
    FileInput input;
    ASSERT_TRUE(ReadFileInput(root, f, &input))
        << f << " missing — update the pinned replication file list";
    inputs.push_back(std::move(input));
  }

  Options opts;
  opts.enabled_rules = {kRuleBannedApi, kRuleSimtimeMixing};
  opts.honor_suppressions = false;  // clean outright, not suppressed-clean
  const std::vector<Diagnostic> diags = Analyze(inputs, opts);
  EXPECT_TRUE(diags.empty()) << [&] {
    std::string all;
    for (const auto& d : diags) all += d.file + ": " + d.message + "\n";
    return all;
  }();

  // The resync staging buffer is pool-owned by annotation
  // (fvcheck:owner=pool); prove the directive is actually present and
  // lexed, so pool-escape keeps watching that buffer.
  FileInput repl_h;
  ASSERT_TRUE(ReadFileInput(root, "src/fv/replication.h", &repl_h));
  const LexedFile lex = Lex(repl_h.content);
  EXPECT_FALSE(lex.owner_pool_lines.empty())
      << "replication.h lost its fvcheck:owner=pool annotation";
}

// --- Lexer hardening (raw-string prefixes, separators, splices) -----------

TEST(LexerTest, EncodingPrefixedLiterals) {
  LexedFile lex = Lex(
      "auto a = u8\"utf8 rand()\";\n"
      "auto b = L\"wide\";\n"
      "auto c = uR\"(raw u rand())\";\n"
      "auto d = u'x';\n"
      "uint64_t uR_not_a_literal = 0;\n");
  // Literal bodies never leak identifier tokens.
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "rand");
  int strings = 0;
  int chars = 0;
  bool saw_ident = false;
  for (const Token& t : lex.tokens) {
    strings += t.kind == Token::Kind::kString;
    chars += t.kind == Token::Kind::kChar;
    saw_ident |= t.kind == Token::Kind::kIdent && t.text == "uR_not_a_literal";
  }
  EXPECT_EQ(strings, 3);
  EXPECT_EQ(chars, 1);
  // A 'u'/'L'/'R'-leading identifier is not mistaken for a prefix.
  EXPECT_TRUE(saw_ident);
}

TEST(LexerTest, DigitSeparatorsStayOneNumber) {
  LexedFile lex = Lex("long n = 1'000'000; int m = 0x1F'FF; char c = 'a';\n");
  std::vector<std::string> numbers;
  int chars = 0;
  for (const Token& t : lex.tokens) {
    if (t.kind == Token::Kind::kNumber) numbers.push_back(t.text);
    chars += t.kind == Token::Kind::kChar;
  }
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "1'000'000");
  EXPECT_EQ(numbers[1], "0x1F'FF");
  EXPECT_EQ(chars, 1);  // the separators did not eat the 'a' literal
}

TEST(LexerTest, BackslashSplices) {
  LexedFile lex = Lex(
      "// comment continues \\\n"
      "rand(); still comment\n"
      "const char* s = \"split \\\n"
      "string\";\n"
      "int after = 1;\n");
  // Code "hidden" behind a spliced line comment is comment, not tokens.
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "rand");
  EXPECT_EQ(lex.comment_lines.count(1), 1u);
  EXPECT_EQ(lex.comment_lines.count(2), 1u);
  bool saw_string = false;
  for (const Token& t : lex.tokens) {
    if (t.kind == Token::Kind::kString) {
      EXPECT_EQ(t.text, "split string");  // splice joins, contributes nothing
      EXPECT_EQ(t.line, 3);
      saw_string = true;
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 5);  // line accounting survives the splices
    }
  }
  EXPECT_TRUE(saw_string);
}

// --- Symbol index (pass 1) -------------------------------------------------

TEST(IndexTest, CrossFileTypesMembersAndVars) {
  FileInput ok;
  FileInput bad;
  ASSERT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, "domain_confinement_ok.cc",
                            &ok));
  ASSERT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, "domain_confinement_bad.cc",
                            &bad));
  const std::vector<std::string> paths = {"src/fv/domain_confinement_ok.cc",
                                          "src/fv/domain_confinement_bad.cc"};
  const std::vector<LexedFile> lexed = {Lex(ok.content), Lex(bad.content)};
  const SymbolIndex index = BuildIndex(paths, lexed);

  const IndexType* fake_other = index.FindType("FakeOther");
  ASSERT_NE(fake_other, nullptr);
  EXPECT_EQ(fake_other->file, "src/fv/domain_confinement_ok.cc");
  EXPECT_NE(fake_other->FindMember("other_count_"), nullptr);
  // Member functions are not data members.
  EXPECT_EQ(fake_other->FindMember("Tick"), nullptr);

  // Namespace-scope variables and function-local statics from both files.
  std::map<std::string, IndexVar> vars;
  for (const IndexVar& v : index.vars) vars[v.name] = v;
  ASSERT_EQ(vars.count("kTickLimit"), 1u);
  EXPECT_TRUE(vars["kTickLimit"].is_const);
  ASSERT_EQ(vars.count("g_declared_elsewhere"), 1u);
  EXPECT_TRUE(vars["g_declared_elsewhere"].is_extern_decl);
  ASSERT_EQ(vars.count("g_tick_count"), 1u);
  EXPECT_EQ(vars["g_tick_count"].file, "src/fv/domain_confinement_bad.cc");
  EXPECT_FALSE(vars["g_tick_count"].is_const);
  EXPECT_FALSE(vars["g_tick_count"].is_static_local);
  ASSERT_EQ(vars.count("cached_calls"), 1u);
  EXPECT_TRUE(vars["cached_calls"].is_static_local);
}

// --- domain-confinement ----------------------------------------------------

TEST(DomainConfinementTest, PositiveFixtureCatchesEveryClass) {
  Options opts;
  opts.enabled_rules = {kRuleDomainConfinement};
  auto diags = AnalyzeFixture("domain_confinement_bad.cc",
                              "src/fv/domain_confinement_bad.cc", opts);
  // 1 mutable global + 1 function-local static.
  EXPECT_EQ(CountRule(diags, kRuleDomainConfinement), 2) << Dump(diags);
}

TEST(DomainConfinementTest, NegativeFixtureStaysClean) {
  Options opts;
  opts.enabled_rules = {kRuleDomainConfinement};
  auto diags = AnalyzeFixture("domain_confinement_ok.cc",
                              "src/fv/domain_confinement_ok.cc", opts);
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

TEST(DomainConfinementTest, OnlyAppliesUnderSrc) {
  Options opts;
  opts.enabled_rules = {kRuleDomainConfinement};
  // The same breaks under tests/ are fine — harnesses are host-side.
  auto diags = AnalyzeFixture("domain_confinement_bad.cc",
                              "tests/domain_confinement_bad.cc", opts);
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

// --- config-coupling -------------------------------------------------------

TEST(ConfigCouplingTest, PositiveFixtureFlagsUncoupledConstants) {
  Options opts;
  opts.enabled_rules = {kRuleConfigCoupling};
  opts.reference_docs.push_back(
      FileInput{"EXPERIMENTS.md", "the table names coupled_depth only"});
  FileInput input;
  ASSERT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, "config_coupling_bad.h",
                            &input));
  input.path = Options::CalibratedConfigHeaders()[0];
  auto diags = Analyze({input}, opts);
  // tuned_rate (member) and kTunedGain (namespace scope); coupled_depth is
  // named by the doc and plain_flag's 0 initializer is not calibrated.
  EXPECT_EQ(CountRule(diags, kRuleConfigCoupling), 2) << Dump(diags);
  EXPECT_NE(Dump(diags).find("'tuned_rate'"), std::string::npos);
  EXPECT_NE(Dump(diags).find("'kTunedGain'"), std::string::npos);
}

TEST(ConfigCouplingTest, NegativeFixtureAndTestCorpusStayClean) {
  Options opts;
  opts.enabled_rules = {kRuleConfigCoupling};
  opts.reference_docs.push_back(
      FileInput{"EXPERIMENTS.md", "the table names coupled_depth only"});
  FileInput input;
  ASSERT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, "config_coupling_ok.h",
                            &input));
  input.path = Options::CalibratedConfigHeaders()[0];
  EXPECT_TRUE(Analyze({input}, opts).empty());

  // A tests/ file naming the constant couples it too (shape tests count).
  Options no_doc;
  no_doc.enabled_rules = {kRuleConfigCoupling};
  FileInput bad;
  ASSERT_TRUE(ReadFileInput(FVCHECK_TESTDATA_DIR, "config_coupling_bad.h",
                            &bad));
  bad.path = Options::CalibratedConfigHeaders()[0];
  FileInput test_file{
      "tests/fixture_shape_test.cc",
      "TEST(Shape, Pins) { use(cfg.tuned_rate + kTunedGain); "
      "use(cfg.coupled_depth); }"};
  auto diags = Analyze({bad, test_file}, no_doc);
  EXPECT_TRUE(diags.empty()) << Dump(diags);

  // No corpus at all (bare-header scan): stay silent rather than flag
  // everything.
  auto bare = Analyze({bad}, no_doc);
  EXPECT_TRUE(bare.empty()) << Dump(bare);
}

// --- stale-suppression -----------------------------------------------------

TEST(StaleSuppressionTest, PositiveFixtureFlagsUnusedAndUnknown) {
  auto diags = AnalyzeFixture("stale_suppression_bad.cc",
                              "src/fv/stale_suppression_bad.cc");
  EXPECT_EQ(CountRule(diags, kRuleStaleSuppression), 2) << Dump(diags);
  EXPECT_NE(Dump(diags).find("suppresses nothing"), std::string::npos);
  EXPECT_NE(Dump(diags).find("unknown rule"), std::string::npos);
}

TEST(StaleSuppressionTest, NegativeFixtureUsedDirectiveIsSilent) {
  auto diags = AnalyzeFixture("stale_suppression_ok.cc",
                              "src/fv/stale_suppression_ok.cc");
  EXPECT_TRUE(diags.empty()) << Dump(diags);
}

TEST(StaleSuppressionTest, NotJudgedWhenTheRuleDidNotRun) {
  // Under --rule simtime-mixing the banned-api directive cannot be judged
  // stale: its rule never ran this invocation.
  Options opts;
  opts.enabled_rules = {kRuleSimtimeMixing, kRuleStaleSuppression};
  auto diags = AnalyzeFixture("stale_suppression_bad.cc",
                              "src/fv/stale_suppression_bad.cc", opts);
  // Only the unknown-rule directive fires (unknown names are always wrong).
  EXPECT_EQ(CountRule(diags, kRuleStaleSuppression), 1) << Dump(diags);
  EXPECT_NE(Dump(diags).find("unknown rule"), std::string::npos);
}

// --- Acceptance demos over the real tree (ISSUE 9) -------------------------

// Renaming a calibrated constant without touching EXPERIMENTS.md or a test
// must fail the tree (the CLAUDE.md constants contract, mechanized).
TEST(TreeSelfCheckTest, ConfigCouplingGuardsCalibratedConstants) {
  const std::string root = FVCHECK_SOURCE_ROOT;
  std::vector<FileInput> inputs;
  for (const std::string& h : Options::CalibratedConfigHeaders()) {
    FileInput input;
    ASSERT_TRUE(ReadFileInput(root, h, &input)) << h;
    inputs.push_back(std::move(input));
  }
  Options opts;
  opts.enabled_rules = {kRuleConfigCoupling};
  FileInput experiments;
  ASSERT_TRUE(ReadFileInput(root, "EXPERIMENTS.md", &experiments));
  opts.reference_docs.push_back(std::move(experiments));

  // EXPERIMENTS.md's calibration tables alone cover every constant.
  auto clean = Analyze(inputs, opts);
  EXPECT_TRUE(clean.empty()) << Dump(clean);

  // Rename one constant's declaration in the header only: now uncoupled.
  const std::string decl = "SimTime retransmit_timeout =";
  std::vector<FileInput> mutated = inputs;
  bool renamed = false;
  for (FileInput& f : mutated) {
    const std::size_t pos = f.content.find(decl);
    if (pos != std::string::npos && f.path == "src/net/net_config.h") {
      f.content.replace(pos, decl.size(), "SimTime retransmit_timeout_v2 =");
      renamed = true;
      break;
    }
  }
  ASSERT_TRUE(renamed) << "net_config.h lost retransmit_timeout — update "
                       << "this mutation test";
  auto diags = Analyze(mutated, opts);
  EXPECT_EQ(CountRule(diags, kRuleConfigCoupling), 1) << Dump(diags);
  EXPECT_NE(Dump(diags).find("'retransmit_timeout_v2'"), std::string::npos)
      << Dump(diags);
}

}  // namespace
}  // namespace fvcheck
