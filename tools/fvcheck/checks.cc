#include "checks.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <thread>  // --jobs worker pool; tools/fvcheck/ is threading-allowlisted
#include <utility>
#include <vector>

#include "index.h"
#include "lexer.h"

namespace fvcheck {

const char kRuleBannedApi[] = "banned-api";
const char kRuleUncheckedStatus[] = "unchecked-status";
const char kRuleSimtimeMixing[] = "simtime-mixing";
const char kRulePoolEscape[] = "pool-escape";
const char kRuleDocCoverage[] = "doc-coverage";
const char kRuleHotPathAlloc[] = "hot-path-alloc";
const char kRuleDomainConfinement[] = "domain-confinement";
const char kRuleConfigCoupling[] = "config-coupling";
const char kRuleStaleSuppression[] = "stale-suppression";

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kNames = {
      kRuleBannedApi,         kRuleUncheckedStatus,
      kRuleSimtimeMixing,     kRulePoolEscape,
      kRuleDocCoverage,       kRuleHotPathAlloc,
      kRuleDomainConfinement, kRuleConfigCoupling,
      kRuleStaleSuppression,
  };
  return kNames;
}

std::vector<std::string> Options::DefaultWallClockAllowlist() {
  return {
      "bench/perf_simcore.cc",          // wall-clock perf harness by design
      "src/common/alloc_counter.cc",    // alloc accounting (host-side only)
      "src/common/alloc_counter_hook.cc",
      "tools/fvcheck/fvcheck_main.cc",  // --timings instrumentation (host tool)
  };
}

std::vector<std::string> Options::DefaultThreadingAllowlist() {
  // Simulation code is single-threaded: one sim::Engine per run, so no
  // simulated component may synchronize. fvcheck itself is a host-side tool
  // whose --jobs pool never touches simulated state; its output order is
  // pinned by the per-file merge + sort in Analyze (and by the
  // JobsDeterminismTest pair).
  return {"tools/fvcheck/"};
}

std::vector<std::string> Options::CalibratedConfigHeaders() {
  return {
      "src/fv/fv_config.h",
      "src/net/net_config.h",
      "src/mem/dram_config.h",
      "src/baseline/cpu_model.h",
  };
}

namespace {

using Kind = Token::Kind;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Context shared by the per-file checks. `index` is the whole-batch pass-1
/// symbol index (read-only here, so the per-file pass can run on --jobs
/// worker threads without synchronization).
struct CheckContext {
  const std::string* path = nullptr;
  const LexedFile* lex = nullptr;
  const Options* opts = nullptr;
  const SymbolIndex* index = nullptr;
  std::vector<Diagnostic>* out = nullptr;

  bool RuleEnabled(const char* rule) const {
    return opts->enabled_rules.empty() || opts->enabled_rules.count(rule) > 0;
  }

  void Report(int line, const char* rule, std::string message) const {
    out->push_back(Diagnostic{*path, line, rule, std::move(message)});
  }
};

bool IsWallClockAllowlisted(const CheckContext& ctx) {
  const auto& wl = ctx.opts->wall_clock_allowlist;
  return std::find(wl.begin(), wl.end(), *ctx.path) != wl.end();
}

/// Statement boundaries: [begin, end) token indices, where tokens[end] (if
/// in range) is the ';', '{' or '}' terminator.
struct Statement {
  std::size_t begin;
  std::size_t end;
};

std::vector<Statement> SplitStatements(const std::vector<Token>& toks) {
  std::vector<Statement> stmts;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Kind::kPunct &&
        (toks[i].text == ";" || toks[i].text == "{" || toks[i].text == "}")) {
      stmts.push_back(Statement{begin, i});
      begin = i + 1;
    }
  }
  if (begin < toks.size()) stmts.push_back(Statement{begin, toks.size()});
  return stmts;
}

/// Advances past a balanced token pair starting at `i` (which must hold
/// `open`); returns the index one past the matching closer, or `limit` when
/// unbalanced.
std::size_t SkipBalanced(const std::vector<Token>& toks, std::size_t i,
                         std::size_t limit, const char* open,
                         const char* close) {
  int depth = 0;
  for (; i < limit; ++i) {
    if (toks[i].kind != Kind::kPunct) continue;
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return limit;
}

// ---------------------------------------------------------------------------
// banned-api
// ---------------------------------------------------------------------------

const std::set<std::string>& WallClockIdents() {
  static const std::set<std::string> kSet = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get",
      "localtime",     "gmtime",       "mktime",
  };
  return kSet;
}

/// Headers whose inclusion implies wall-clock use.
const std::set<std::string>& WallClockHeaders() {
  static const std::set<std::string> kSet = {"<chrono>", "<ctime>", "<time.h>",
                                             "<sys/time.h>"};
  return kSet;
}

/// std::-qualified names whose presence means raw threading: a second clock
/// and scheduler-dependent interleavings, i.e. nondeterminism — banned
/// outside the threading allowlist (lock_guard/unique_lock need no entries;
/// they are unusable without one of the mutex types below).
const std::set<std::string>& ThreadingIdents() {
  static const std::set<std::string> kSet = {
      "thread",       "jthread",      "this_thread",
      "mutex",        "timed_mutex",  "recursive_mutex",
      "shared_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "atomic",       "atomic_flag",  "atomic_ref",
      "condition_variable", "condition_variable_any",
  };
  return kSet;
}

/// Headers whose inclusion implies threading-primitive use.
const std::set<std::string>& ThreadingHeaders() {
  static const std::set<std::string> kSet = {
      "<thread>", "<mutex>", "<shared_mutex>", "<atomic>",
      "<condition_variable>"};
  return kSet;
}

bool IsThreadingAllowlisted(const CheckContext& ctx) {
  for (const std::string& prefix : ctx.opts->threading_allowlist_prefixes) {
    if (StartsWith(*ctx.path, prefix)) return true;
  }
  return false;
}

void CheckBannedApi(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRuleBannedApi)) return;
  const auto& toks = ctx.lex->tokens;
  const bool in_src = StartsWith(*ctx.path, "src/");
  const bool wall_ok = IsWallClockAllowlisted(ctx);
  const bool threading_ok = IsThreadingAllowlisted(ctx);

  auto prev_punct = [&](std::size_t i, const char* p) {
    return i > 0 && toks[i - 1].kind == Kind::kPunct && toks[i - 1].text == p;
  };
  // True for `foo.time(` / `foo->time(` and for `ns::time(` with a
  // qualifier other than std/chrono — member/own-namespace functions that
  // merely share a libc name are not the banned API.
  auto qualified_non_std = [&](std::size_t i) {
    if (prev_punct(i, ".") || prev_punct(i, "->")) return true;
    if (prev_punct(i, "::")) {
      return !(i >= 2 && toks[i - 2].kind == Kind::kIdent &&
               (toks[i - 2].text == "std" || toks[i - 2].text == "chrono"));
    }
    return false;
  };
  // `<type> time(...)` declares a member/function that merely shares the
  // libc name; a call site never has a plain identifier directly before it
  // (except `return`).
  auto is_decl = [&](std::size_t i) {
    return i > 0 && toks[i - 1].kind == Kind::kIdent &&
           toks[i - 1].text != "return";
  };
  auto is_call = [&](std::size_t i) {
    return i + 1 < toks.size() && toks[i + 1].kind == Kind::kPunct &&
           toks[i + 1].text == "(" && !is_decl(i);
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    const std::string& t = toks[i].text;

    // Randomness: banned everywhere; determinism comes from common/rng.h.
    if (t == "random_device" || t == "random_shuffle") {
      ctx.Report(toks[i].line, kRuleBannedApi,
                 "'" + t + "' breaks determinism; use farview::Rng with an "
                 "explicit seed");
      continue;
    }
    if ((t == "rand" || t == "srand") && is_call(i) && !qualified_non_std(i)) {
      ctx.Report(toks[i].line, kRuleBannedApi,
                 "'" + t + "()' breaks determinism; use farview::Rng with an "
                 "explicit seed");
      continue;
    }

    // Wall clocks: simulated time is SimTime picoseconds; host time is
    // allowed only in the allowlisted wall-clock harness files.
    if (!wall_ok) {
      if (WallClockIdents().count(t) > 0 && !qualified_non_std(i)) {
        ctx.Report(toks[i].line, kRuleBannedApi,
                   "wall-clock API '" + t + "' outside the allowlist; "
                   "simulated code must use SimTime");
        continue;
      }
      if (t == "time" && is_call(i) && !qualified_non_std(i)) {
        ctx.Report(toks[i].line, kRuleBannedApi,
                   "wall-clock API 'time()' outside the allowlist; "
                   "simulated code must use SimTime");
        continue;
      }
    }

    // Threading primitives: scheduler-dependent interleavings break the
    // deterministic-event contract, and the simulation is single-threaded.
    // Only the std::-qualified spelling is the banned API — `my::mutex` or a
    // member named `thread` is not.
    if (!threading_ok && ThreadingIdents().count(t) > 0 && i >= 2 &&
        prev_punct(i, "::") && toks[i - 2].kind == Kind::kIdent &&
        toks[i - 2].text == "std") {
      ctx.Report(toks[i].line, kRuleBannedApi,
                 "threading primitive 'std::" + t + "' outside the "
                 "threading allowlist; deterministic simulation code must "
                 "not synchronize");
      continue;
    }

    // Exceptions: src/ is Status/Result-only (CLAUDE.md).
    if (in_src && (t == "throw" || t == "try" || t == "catch")) {
      ctx.Report(toks[i].line, kRuleBannedApi,
                 "'" + t + "' in src/; fallible paths must return "
                 "Status/Result<T>");
      continue;
    }
  }

  for (const auto& [line, text] : ctx.lex->preproc) {
    if (text.find("include") == std::string::npos) continue;
    if (!wall_ok) {
      for (const std::string& hdr : WallClockHeaders()) {
        if (text.find(hdr) != std::string::npos) {
          ctx.Report(line, kRuleBannedApi,
                     "#include " + hdr + " outside the wall-clock allowlist");
        }
      }
    }
    if (!threading_ok) {
      for (const std::string& hdr : ThreadingHeaders()) {
        if (text.find(hdr) != std::string::npos) {
          ctx.Report(line, kRuleBannedApi,
                     "threading header #include " + hdr + " outside the "
                     "threading allowlist");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-status
// ---------------------------------------------------------------------------

// (Return-type collection lives in index.cc — the SymbolIndex carries the
// status_fns / ambiguous_fns sets for the whole batch.)

void CheckUncheckedStatus(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRuleUncheckedStatus)) return;
  const auto& toks = ctx.lex->tokens;
  for (const Statement& st : SplitStatements(toks)) {
    if (st.begin >= st.end) continue;
    const Token& first = toks[st.begin];
    // Only bare expression statements can discard a result; anything
    // starting with a keyword, a cast, or ending in '{'/'}' is not one.
    if (st.end >= toks.size() || toks[st.end].text != ";") continue;
    if (first.kind == Kind::kPunct) continue;  // e.g. `(void)Foo();`
    static const std::set<std::string> kStmtKeywords = {
        "return",  "co_return", "delete", "throw",   "goto",  "break",
        "continue", "case",     "default", "using",  "typedef",
        "namespace", "template", "public", "private", "protected",
        "static_assert", "if", "for", "while", "do", "switch", "else",
    };
    if (kStmtKeywords.count(first.text) > 0) continue;

    // Walk the member/scope chain: ident ( '(' args ')' )? ( '.'|'->'|'::'
    // ident )* — the statement must be exactly one call chain ending at ';'.
    std::size_t i = st.begin;
    std::string last_call;
    int last_call_line = 0;
    bool shape_ok = true;
    while (i < st.end) {
      if (toks[i].kind != Kind::kIdent) {
        shape_ok = false;
        break;
      }
      const std::string name = toks[i].text;
      const int line = toks[i].line;
      ++i;
      if (i < st.end && toks[i].kind == Kind::kPunct && toks[i].text == "(") {
        i = SkipBalanced(toks, i, st.end + 1, "(", ")");
        last_call = name;
        last_call_line = line;
      } else {
        last_call.clear();
      }
      if (i >= st.end) break;
      if (toks[i].kind == Kind::kPunct &&
          (toks[i].text == "." || toks[i].text == "->" ||
           toks[i].text == "::")) {
        ++i;
        continue;
      }
      shape_ok = false;
      break;
    }
    if (!shape_ok || last_call.empty()) continue;
    if (ctx.index->status_fns.count(last_call) == 0) continue;
    if (ctx.index->ambiguous_fns.count(last_call) > 0) continue;
    ctx.Report(last_call_line, kRuleUncheckedStatus,
               "result of '" + last_call +
                   "' (returns Status/Result) is discarded; propagate with "
                   "FV_RETURN_IF_ERROR / FV_ASSIGN_OR_RETURN or discard "
                   "explicitly with FV_IGNORE_ERROR(expr, reason)");
  }
}

// ---------------------------------------------------------------------------
// simtime-mixing
// ---------------------------------------------------------------------------

void CheckSimtimeMixing(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRuleSimtimeMixing)) return;
  const auto& toks = ctx.lex->tokens;
  for (const Statement& st : SplitStatements(toks)) {
    bool has_simtime = false;
    bool has_chrono = false;
    int line = 0;
    for (std::size_t i = st.begin; i < st.end; ++i) {
      if (toks[i].kind != Kind::kIdent) continue;
      if (toks[i].text == "SimTime") {
        has_simtime = true;
        if (line == 0) line = toks[i].line;
      }
      if (toks[i].text == "chrono") has_chrono = true;
    }
    if (has_simtime && has_chrono) {
      ctx.Report(line, kRuleSimtimeMixing,
                 "SimTime mixed with std::chrono in one expression; convert "
                 "explicitly at the boundary");
    }
  }

  // `SimTime x = 1500;` hides the unit; require `1500 * kPicosecond` (or
  // any unit constant). 0 and 1 are unit-free by definition. Scanned over
  // the raw token stream because the '{' of brace-initialization is also a
  // statement boundary.
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent || toks[i].text != "SimTime") continue;
    if (toks[i + 1].kind != Kind::kIdent) continue;
    const std::size_t v = i + 2;
    if (toks[v].kind != Kind::kPunct ||
        (toks[v].text != "=" && toks[v].text != "{")) {
      continue;
    }
    std::size_t lit = v + 1;
    if (lit < toks.size() && toks[lit].kind == Kind::kPunct &&
        toks[lit].text == "-") {
      ++lit;
    }
    if (lit >= toks.size() || toks[lit].kind != Kind::kNumber) continue;
    const std::string& num = toks[lit].text;
    if (num == "0" || num == "1") continue;
    const bool unit_follows = lit + 1 < toks.size() &&
                              toks[lit + 1].kind == Kind::kPunct &&
                              toks[lit + 1].text == "*";
    if (unit_follows) continue;
    ctx.Report(toks[lit].line, kRuleSimtimeMixing,
               "raw literal '" + num + "' assigned to SimTime; write the "
               "unit explicitly (e.g. '" + num + " * kPicosecond')");
  }
}

// ---------------------------------------------------------------------------
// pool-escape
// ---------------------------------------------------------------------------

void CheckPoolEscape(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRulePoolEscape)) return;
  const auto& toks = ctx.lex->tokens;
  for (const Statement& st : SplitStatements(toks)) {
    // Find `<lhs> = ....Acquire(` / `->Acquire(` inside the statement.
    std::size_t eq = st.end;
    for (std::size_t i = st.begin; i < st.end; ++i) {
      if (toks[i].kind == Kind::kPunct && toks[i].text == "=") {
        eq = i;
        break;
      }
    }
    if (eq == st.end) continue;
    bool acquires = false;
    int line = 0;
    for (std::size_t i = eq + 1; i + 1 < st.end + 1 && i + 1 < toks.size();
         ++i) {
      if (toks[i].kind == Kind::kIdent && toks[i].text == "Acquire" &&
          i > st.begin && toks[i - 1].kind == Kind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i + 1].kind == Kind::kPunct && toks[i + 1].text == "(") {
        acquires = true;
        line = toks[i].line;
        break;
      }
    }
    if (!acquires) continue;

    // Storage class of the left-hand side: a member (trailing '_', Google
    // style) or a static outlives the event that acquired the object.
    bool is_static = false;
    std::string lhs_name;
    for (std::size_t i = st.begin; i < eq; ++i) {
      if (toks[i].kind == Kind::kIdent) {
        if (toks[i].text == "static") is_static = true;
        lhs_name = toks[i].text;
      }
    }
    const bool is_member = EndsWith(lhs_name, "_");
    if (!is_member && !is_static) continue;
    if (ctx.lex->owner_pool_lines.count(line) > 0 ||
        ctx.lex->owner_pool_lines.count(line - 1) > 0) {
      continue;
    }
    ctx.Report(line, kRulePoolEscape,
               "pooled object stored into " +
                   std::string(is_static ? "a static" : "member '" + lhs_name +
                                                            "'") +
                   ", which outlives the acquiring event; audit the release "
                   "path and annotate with // fvcheck:owner=pool");
  }
}

// ---------------------------------------------------------------------------
// doc-coverage
// ---------------------------------------------------------------------------

/// True when a `///` doc block immediately precedes `line` (possibly with
/// other comment lines in between, e.g. a NOLINT note under the doc text).
bool HasDocAbove(const LexedFile& lex, int line) {
  int l = line - 1;
  while (l >= 1 && lex.comment_lines.count(l) > 0) {
    if (lex.doc_lines.count(l) > 0) return true;
    --l;
  }
  return false;
}

void CheckDocCoverage(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRuleDocCoverage)) return;
  if (!EndsWith(*ctx.path, ".h")) return;
  if (!StartsWith(*ctx.path, "src/") && !StartsWith(*ctx.path, "tools/")) {
    return;
  }
  const auto& toks = ctx.lex->tokens;

  std::size_t i = 0;
  int ns_depth = 0;  // we only inspect declarations at namespace scope
  while (i < toks.size()) {
    // Find the end of this declaration head: the first ';' or '{' outside
    // parens/brackets.
    std::size_t head_end = i;
    int paren = 0;
    while (head_end < toks.size()) {
      const Token& t = toks[head_end];
      if (t.kind == Kind::kPunct) {
        if (t.text == "(" || t.text == "[") ++paren;
        if (t.text == ")" || t.text == "]") --paren;
        if (paren == 0 && (t.text == ";" || t.text == "{" || t.text == "}")) {
          break;
        }
      }
      ++head_end;
    }
    if (head_end >= toks.size()) break;
    const std::string term = toks[head_end].text;

    if (i == head_end) {  // bare terminator
      if (term == "}") --ns_depth;
      i = head_end + 1;
      continue;
    }

    const Token& first = toks[i];
    auto head_has = [&](const char* ident) {
      for (std::size_t k = i; k < head_end; ++k) {
        if (toks[k].kind == Kind::kIdent && toks[k].text == ident) return true;
      }
      return false;
    };

    if (first.text == "namespace" && term == "{") {
      ++ns_depth;
      i = head_end + 1;
      continue;
    }
    if (ns_depth < 1) {  // file scope: include guards, extern blocks — skip
      if (term == "{") i = SkipBalanced(toks, head_end, toks.size(), "{", "}");
      else i = head_end + 1;
      continue;
    }

    // Declarations exempt from docs: forward declarations, using-directives,
    // static_asserts, friend declarations.
    const bool fwd_decl =
        term == ";" && (first.text == "class" || first.text == "struct") &&
        head_end - i == 2;
    const bool exempt = fwd_decl || first.text == "static_assert" ||
                        first.text == "friend" ||
                        (first.text == "using" && head_has("namespace")) ||
                        first.text == "extern";

    const bool is_type = head_has("class") || head_has("struct") ||
                         head_has("enum") || head_has("union");
    bool is_fn = false;
    for (std::size_t k = i; k + 1 < head_end && !is_type; ++k) {
      if (toks[k].kind == Kind::kIdent && toks[k + 1].kind == Kind::kPunct &&
          toks[k + 1].text == "(") {
        is_fn = true;
        break;
      }
    }
    const bool is_alias = first.text == "using" && !head_has("namespace");
    // Anything else reaching here with an '=' is a namespace-scope variable
    // (e.g. `inline constexpr uint64_t kKiB = ...`).
    bool is_var = false;
    if (!is_type && !is_fn && !is_alias) {
      for (std::size_t k = i; k < head_end; ++k) {
        if (toks[k].kind == Kind::kPunct && toks[k].text == "=") {
          is_var = true;
          break;
        }
      }
    }

    if (!exempt && (is_type || is_fn || is_alias || is_var) &&
        !HasDocAbove(*ctx.lex, first.line)) {
      std::string what = is_type ? "type" : is_fn ? "function"
                                 : is_alias ? "alias" : "constant";
      ctx.Report(first.line, kRuleDocCoverage,
                 "public namespace-scope " + what +
                     " lacks a /// doc comment (conventions: CLAUDE.md)");
    }

    // Skip bodies: class/struct/enum bodies are exempt (members are covered
    // by the type's doc); function bodies contain no namespace-scope decls.
    if (term == "{") {
      i = SkipBalanced(toks, head_end, toks.size(), "{", "}");
      // Swallow the trailing ';' of a type definition.
      if (i < toks.size() && toks[i].kind == Kind::kPunct &&
          toks[i].text == ";") {
        ++i;
      }
    } else {
      i = head_end + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// Directories whose code runs per simulated event/packet/batch: the
/// allocation discipline of DESIGN.md §8a applies in full.
bool IsHotPathDir(const std::string& path) {
  return StartsWith(path, "src/sim/") || StartsWith(path, "src/net/") ||
         StartsWith(path, "src/operators/");
}

void CheckHotPathAlloc(const CheckContext& ctx) {
  if (!ctx.RuleEnabled(kRuleHotPathAlloc)) return;
  if (!IsHotPathDir(*ctx.path)) return;
  const auto& toks = ctx.lex->tokens;

  int paren = 0;  // depth of '(' nesting; 0 = outside any parameter list
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Kind::kPunct) {
      if (t.text == "(") ++paren;
      else if (t.text == ")" && paren > 0) --paren;
      continue;
    }
    if (t.kind != Kind::kIdent) continue;

    // `std::function` outside a parameter list is a member, alias, or local
    // — a heap allocation per over-64-B capture on every assignment.
    // Parameter uses (paren depth > 0) are accepted: the caller chose the
    // type, and a by-value parameter is a single sink, not per-event churn.
    if (t.text == "function" && paren == 0 && i >= 2 &&
        toks[i - 1].kind == Kind::kPunct && toks[i - 1].text == "::" &&
        toks[i - 2].kind == Kind::kIdent && toks[i - 2].text == "std") {
      ctx.Report(t.line, kRuleHotPathAlloc,
                 "std::function stored on the hot path allocates per "
                 "capture; use InlineFn (64 B inline storage) or park the "
                 "callback in a member (DESIGN.md §8a)");
      continue;
    }

    // Container growth via member call: steady-state code must recycle
    // capacity (ByteBuffer / RingQueue / cleared-not-shrunk vectors), so a
    // bare push_back/emplace_back/resize is either a deliberate setup or
    // warm-growth site (suppress it with a named justification) or a bug.
    if ((t.text == "push_back" || t.text == "emplace_back" ||
         t.text == "resize") &&
        i > 0 && toks[i - 1].kind == Kind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        i + 1 < toks.size() && toks[i + 1].kind == Kind::kPunct &&
        toks[i + 1].text == "(") {
      ctx.Report(t.line, kRuleHotPathAlloc,
                 "'" + t.text + "' grows a container on the hot path; "
                 "recycle capacity through a pooled buffer, or mark a "
                 "deliberate setup/warm-growth site with "
                 "// fvcheck:allow=hot-path-alloc (DESIGN.md §8a)");
    }
  }
}

// ---------------------------------------------------------------------------
// domain-confinement (cross-file)
// ---------------------------------------------------------------------------

/// Mutable namespace-scope state and non-const function-local statics
/// anywhere under src/ outlive the simulation that wrote them: every engine
/// in the process shares them, so a run could depend on the runs before it.
void AppendDomainConfinementGlobals(
    const SymbolIndex& index, const Options& opts,
    const std::map<std::string, std::size_t>& file_idx,
    std::vector<std::vector<Diagnostic>>* per_file) {
  if (!opts.enabled_rules.empty() &&
      opts.enabled_rules.count(kRuleDomainConfinement) == 0) {
    return;
  }
  for (const IndexVar& v : index.vars) {
    if (!StartsWith(v.file, "src/")) continue;
    if (v.is_const || v.is_extern_decl) continue;
    auto it = file_idx.find(v.file);
    if (it == file_idx.end()) continue;
    const std::string what = v.is_static_local
                                 ? "function-local static '"
                                 : "mutable namespace-scope variable '";
    (*per_file)[it->second].push_back(Diagnostic{
        v.file, v.line, kRuleDomainConfinement,
        what + v.name + "' is process-wide state shared by every "
        "simulation in the process; make it const, move it into the object "
        "that owns it, or carry a named suppression arguing why it is "
        "host-side only (DESIGN.md §11)"});
  }
}

// ---------------------------------------------------------------------------
// config-coupling (cross-file; mechanizes the CLAUDE.md constants contract)
// ---------------------------------------------------------------------------

/// Every calibrated constant declared in the four config headers must be
/// named by EXPERIMENTS.md or by an identifier in some tests/ file of the
/// batch — renaming or adding a constant without coupling it to a shape
/// expectation fires here.
void AppendConfigCoupling(
    const std::vector<FileInput>& files, const std::vector<LexedFile>& lexed,
    const SymbolIndex& index, const Options& opts,
    const std::map<std::string, std::size_t>& file_idx,
    std::vector<std::vector<Diagnostic>>* per_file) {
  if (!opts.enabled_rules.empty() &&
      opts.enabled_rules.count(kRuleConfigCoupling) == 0) {
    return;
  }
  const std::vector<std::string> headers = Options::CalibratedConfigHeaders();
  bool any_header = false;
  for (const std::string& h : headers) any_header |= file_idx.count(h) > 0;
  if (!any_header) return;

  // Reference corpus: identifiers in the batch's tests/ files plus words in
  // the reference docs. An empty corpus means the caller gave the rule
  // nothing to couple against (e.g. a bare-header scan) — skip rather than
  // flag everything.
  std::set<std::string> corpus;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!StartsWith(files[i].path, "tests/")) continue;
    for (const Token& t : lexed[i].tokens) {
      if (t.kind == Kind::kIdent) corpus.insert(t.text);
    }
  }
  for (const FileInput& doc : opts.reference_docs) {
    std::string word;
    for (const char c : doc.content) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        word.push_back(c);
      } else if (!word.empty()) {
        corpus.insert(word);
        word.clear();
      }
    }
    if (!word.empty()) corpus.insert(word);
  }
  if (corpus.empty()) return;

  auto report = [&](const std::string& file, int line,
                    const std::string& name) {
    if (corpus.count(name) > 0) return;
    auto it = file_idx.find(file);
    if (it == file_idx.end()) return;
    (*per_file)[it->second].push_back(Diagnostic{
        file, line, kRuleConfigCoupling,
        "calibrated constant '" + name + "' is referenced by neither "
        "EXPERIMENTS.md nor any test; couple timing-model changes to a "
        "shape expectation (CLAUDE.md calibration contract)"});
  };

  for (const std::string& h : headers) {
    if (file_idx.count(h) == 0) continue;
    for (const auto& [qual, ty] : index.types) {
      if (ty.file != h) continue;
      for (const IndexMember& m : ty.members) {
        if (!m.calibrated_init) continue;
        report(h, m.line, m.name);
      }
    }
    for (const IndexVar& v : index.vars) {
      if (v.file != h || !v.calibrated_init || v.is_extern_decl) continue;
      report(h, v.line, v.name);
    }
  }
}

// ---------------------------------------------------------------------------
// suppressions + stale-suppression
// ---------------------------------------------------------------------------

/// Line+rule pairs of allow= directives that actually absorbed a
/// diagnostic; feeds stale-suppression.
using UsedSuppressions = std::set<std::pair<int, std::string>>;

bool Suppressed(const LexedFile& lex, const Diagnostic& d,
                UsedSuppressions* used) {
  for (int l = d.line; l >= d.line - 1; --l) {
    auto it = lex.allows.find(l);
    if (it == lex.allows.end()) continue;
    if (it->second.count(d.rule) > 0) {
      used->insert({l, d.rule});
      return true;
    }
    if (it->second.count("all") > 0) {
      used->insert({l, "all"});
      return true;
    }
  }
  return false;
}

/// A directive that absorbed nothing is itself a diagnostic: either the
/// code was fixed (delete the directive) or the rule drifted past it (the
/// suppression hides nothing but would hide a future regression). Runs
/// after the suppression filter and is deliberately not suppressible —
/// silencing the janitor defeats it. Unknown rule names always fire; known
/// rules are judged only when they actually ran this invocation.
void CheckStaleSuppressions(const std::string& path, const LexedFile& lex,
                            const Options& opts,
                            const UsedSuppressions& used,
                            std::vector<Diagnostic>* out) {
  if (!opts.honor_suppressions) return;
  if (!opts.enabled_rules.empty() &&
      opts.enabled_rules.count(kRuleStaleSuppression) == 0) {
    return;
  }
  static const std::set<std::string> kKnown = [] {
    return std::set<std::string>(AllRuleNames().begin(), AllRuleNames().end());
  }();
  for (const auto& [line, rules] : lex.allows) {
    for (const std::string& r : rules) {
      if (r == "all") {
        if (opts.enabled_rules.empty() && used.count({line, "all"}) == 0) {
          out->push_back(Diagnostic{
              path, line, kRuleStaleSuppression,
              "'fvcheck:allow=all' suppresses nothing; delete the "
              "directive (or name the one rule it is actually for)"});
        }
        continue;
      }
      if (kKnown.count(r) == 0) {
        out->push_back(Diagnostic{
            path, line, kRuleStaleSuppression,
            "'fvcheck:allow=" + r + "' names an unknown rule; the "
            "directive suppresses nothing (rule catalog: DESIGN.md §11)"});
        continue;
      }
      if (!opts.enabled_rules.empty() && opts.enabled_rules.count(r) == 0) {
        continue;  // rule did not run; staleness cannot be judged
      }
      if (used.count({line, r}) == 0) {
        out->push_back(Diagnostic{
            path, line, kRuleStaleSuppression,
            "'fvcheck:allow=" + r + "' suppresses nothing on this or the "
            "next line; delete the stale directive (DESIGN.md §11)"});
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> Analyze(const std::vector<FileInput>& files,
                                const Options& opts) {
  const std::size_t jobs = static_cast<std::size_t>(
      std::max(1, std::min(opts.jobs, 64)));

  // Shards [0, files.size()) across the worker pool; with jobs == 1 this is
  // a plain loop on the calling thread. Workers touch disjoint slots, so
  // no synchronization beyond join() is needed and the result is the same
  // at any thread count.
  auto run_sharded = [&](const std::function<void(std::size_t)>& fn) {
    const std::size_t n = std::min(jobs, files.size());
    if (n <= 1) {
      for (std::size_t i = 0; i < files.size(); ++i) fn(i);
      return;
    }
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < files.size(); i += n) fn(i);
      });
    }
    for (std::thread& th : pool) th.join();
  };

  // Pass 0: lex (parallel, per-file independent).
  std::vector<LexedFile> lexed(files.size());
  run_sharded([&](std::size_t i) { lexed[i] = Lex(files[i].content); });

  // Pass 1: whole-batch symbol/ownership index (sequential; cheap relative
  // to lexing and inherently order-dependent).
  std::vector<std::string> paths;
  paths.reserve(files.size());
  for (const FileInput& f : files) paths.push_back(f.path);
  const SymbolIndex index = BuildIndex(paths, lexed);

  std::map<std::string, std::size_t> file_idx;
  for (std::size_t i = 0; i < files.size(); ++i) file_idx[files[i].path] = i;

  // Pass 2a: per-file rules (parallel; the index is read-only here).
  std::vector<std::vector<Diagnostic>> per_file(files.size());
  run_sharded([&](std::size_t i) {
    CheckContext ctx;
    ctx.path = &files[i].path;
    ctx.lex = &lexed[i];
    ctx.opts = &opts;
    ctx.index = &index;
    ctx.out = &per_file[i];
    CheckBannedApi(ctx);
    CheckUncheckedStatus(ctx);
    CheckSimtimeMixing(ctx);
    CheckPoolEscape(ctx);
    CheckDocCoverage(ctx);
    CheckHotPathAlloc(ctx);
  });

  // Pass 2b: cross-file rules walk the index once and file their findings
  // into the owning file's list, so suppressions apply uniformly.
  AppendDomainConfinementGlobals(index, opts, file_idx, &per_file);
  AppendConfigCoupling(files, lexed, index, opts, file_idx, &per_file);

  // Suppression filter + stale-suppression audit, in batch order; the
  // final sort pins the output order regardless of jobs.
  std::vector<Diagnostic> out;
  for (std::size_t i = 0; i < files.size(); ++i) {
    UsedSuppressions used;
    for (Diagnostic& d : per_file[i]) {
      if (opts.honor_suppressions && Suppressed(lexed[i], d, &used)) continue;
      out.push_back(std::move(d));
    }
    CheckStaleSuppressions(files[i].path, lexed[i], opts, used, &out);
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace fvcheck
