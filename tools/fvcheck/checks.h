#ifndef FARVIEW_TOOLS_FVCHECK_CHECKS_H_
#define FARVIEW_TOOLS_FVCHECK_CHECKS_H_

#include <set>
#include <string>
#include <vector>

namespace fvcheck {

/// Names of the project-invariant rules (DESIGN.md §11):
///  - "banned-api":       wall clocks, randomness, exceptions in src/, and
///                        raw threading primitives (std::thread/mutex/atomic
///                        &c.) anywhere
///  - "unchecked-status": discarded Status/Result<T> call results
///  - "simtime-mixing":   SimTime arithmetic with std::chrono or raw literals
///  - "pool-escape":      pooled pointers stored beyond the event lifetime
///  - "doc-coverage":     undocumented namespace-scope items in headers
///  - "hot-path-alloc":   std::function members and unpooled container
///                        growth under src/sim, src/net, src/operators
/// Cross-file rules (run against the pass-1 symbol index, index.h):
///  - "domain-confinement":   mutable namespace-scope state / function-local
///                            statics under src/
///  - "config-coupling":      calibrated constants in the four config
///                            headers must be referenced by EXPERIMENTS.md
///                            or a test (the CLAUDE.md constants contract)
///  - "stale-suppression":    an fvcheck:allow= directive that suppresses
///                            nothing (or names an unknown rule)
/// Kept as plain strings so suppression comments can name them verbatim.
extern const char kRuleBannedApi[];
extern const char kRuleUncheckedStatus[];
extern const char kRuleSimtimeMixing[];
extern const char kRulePoolEscape[];
extern const char kRuleDocCoverage[];
extern const char kRuleHotPathAlloc[];
extern const char kRuleDomainConfinement[];
extern const char kRuleConfigCoupling[];
extern const char kRuleStaleSuppression[];

/// Every rule name, in catalog order (DESIGN.md §11). The CLI validates
/// --rule arguments and drives per-rule timing from this list, and
/// stale-suppression treats any other name in an allow= directive as a
/// diagnostic.
const std::vector<std::string>& AllRuleNames();

/// One finding. `file` is the repo-relative path the caller supplied.
struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

/// A file to analyze. `path` must be repo-relative with '/' separators —
/// the path decides which rules apply (e.g. exceptions are banned only
/// under src/) and whether the file is wall-clock allowlisted.
struct FileInput {
  std::string path;
  std::string content;
};

/// Analysis configuration.
struct Options {
  /// Repo-relative files allowed to use wall-clock APIs. The default is the
  /// project's complete, closed set: the wall-clock perf harness and the
  /// allocation-counter hook (tests/fvcheck self-check pins that these stay
  /// the only users).
  std::vector<std::string> wall_clock_allowlist = DefaultWallClockAllowlist();

  /// When non-empty, only these rules run (used by the CLI's --rule flag
  /// and by the allowlist self-check).
  std::set<std::string> enabled_rules;

  /// Honor `// fvcheck:allow=` suppressions (the self-check disables this
  /// to see through suppressions when auditing wall-clock users).
  bool honor_suppressions = true;

  /// Reference documents (EXPERIMENTS.md) whose words count as references
  /// for the config-coupling rule, alongside identifiers in tests/ files of
  /// the batch. The CLI loads <root>/EXPERIMENTS.md here.
  std::vector<FileInput> reference_docs;

  static std::vector<std::string> DefaultWallClockAllowlist();

  /// The four calibrated config headers the config-coupling rule audits —
  /// the exact set CLAUDE.md's constants-change contract names.
  static std::vector<std::string> CalibratedConfigHeaders();
};

/// Runs all (enabled) checks over `files` and returns findings sorted by
/// (file, line). Cross-file knowledge — which function names return
/// Status/Result — is gathered from the whole batch, so callers should pass
/// every file of interest in one call.
std::vector<Diagnostic> Analyze(const std::vector<FileInput>& files,
                                const Options& opts);

/// Recursively collects .cc/.h/.cpp/.hpp files under `root` for each entry
/// of `paths` (repo-relative files or directories), skipping build trees,
/// goldens/, hidden directories, and fvcheck's own testdata/ fixtures.
/// Returned paths are repo-relative with '/' separators, sorted.
std::vector<std::string> CollectSourceFiles(
    const std::string& root, const std::vector<std::string>& paths);

/// Reads `root`/`rel` into `out`; false when the file cannot be read.
bool ReadFileInput(const std::string& root, const std::string& rel,
                   FileInput* out);

}  // namespace fvcheck

#endif  // FARVIEW_TOOLS_FVCHECK_CHECKS_H_
