// fvcheck — project-specific static analysis for the Farview tree.
//
// Enforces the invariants the simulator's correctness argument rests on
// (DESIGN.md §11): determinism (no wall clocks / ambient randomness),
// Status/Result error discipline, SimTime unit hygiene, pooled-lifetime
// annotations, doc coverage on public headers, the hot-path memory
// discipline (DESIGN.md §8a), and the cross-file analyses built on the
// pass-1 symbol index (index.h): domain confinement of mutable globals,
// config-constant coupling, and stale-suppression hygiene.
//
// Usage:
//   fvcheck [--root <repo_root>] [--rule <name>]... [--jobs N] [--timings]
//           [paths...]
//
// Paths are repo-relative files or directories (default: src tests bench
// tools examples). Exit status is 1 when any diagnostic fires, 2 on usage
// errors. Suppression: `// fvcheck:allow=<rule>` on the offending line or
// the line above (a directive that suppresses nothing is itself flagged by
// stale-suppression). --jobs parallelizes the lex and per-file passes;
// output is byte-identical at any value. --timings runs each rule alone
// and prints its wall time to stderr (CI uses this to spot rule-cost
// regressions).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"

int main(int argc, char** argv) {
  std::string root = ".";
  fvcheck::Options opts;
  std::vector<std::string> paths;
  bool timings = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--rule") == 0 && i + 1 < argc) {
      const std::string rule = argv[++i];
      const std::vector<std::string>& known = fvcheck::AllRuleNames();
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        std::cerr << "fvcheck: unknown rule '" << rule << "' (see --help)\n";
        return 2;
      }
      opts.enabled_rules.insert(rule);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = std::atoi(argv[++i]);
      if (opts.jobs < 1) opts.jobs = 1;
    } else if (std::strcmp(argv[i], "--timings") == 0) {
      timings = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: fvcheck [--root <dir>] [--rule <name>]... "
                   "[--jobs N] [--timings] [paths...]\nrules:";
      for (const std::string& r : fvcheck::AllRuleNames()) {
        std::cout << " " << r;
      }
      std::cout << "\n";
      return 0;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) paths = {"src", "tests", "bench", "tools", "examples"};

  const std::vector<std::string> files =
      fvcheck::CollectSourceFiles(root, paths);
  if (files.empty()) {
    std::cerr << "fvcheck: no source files found under '" << root << "'\n";
    return 2;
  }

  std::vector<fvcheck::FileInput> inputs;
  inputs.reserve(files.size());
  for (const std::string& f : files) {
    fvcheck::FileInput input;
    if (!fvcheck::ReadFileInput(root, f, &input)) {
      std::cerr << "fvcheck: cannot read " << f << "\n";
      return 2;
    }
    inputs.push_back(std::move(input));
  }

  // config-coupling counts EXPERIMENTS.md words as constant references;
  // absence just narrows the corpus to the batch's tests/ identifiers.
  fvcheck::FileInput experiments;
  if (fvcheck::ReadFileInput(root, "EXPERIMENTS.md", &experiments)) {
    opts.reference_docs.push_back(std::move(experiments));
  }

  if (timings) {
    for (const std::string& rule : fvcheck::AllRuleNames()) {
      fvcheck::Options one = opts;
      one.enabled_rules = {rule};
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t n = fvcheck::Analyze(inputs, one).size();
      const auto t1 = std::chrono::steady_clock::now();
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0);
      std::cerr << "fvcheck: rule " << rule << ": " << ms.count() << " ms, "
                << n << " diagnostic(s)\n";
    }
  }

  const std::vector<fvcheck::Diagnostic> diags =
      fvcheck::Analyze(inputs, opts);
  for (const fvcheck::Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
  }
  if (!diags.empty()) {
    std::cout << "fvcheck: " << diags.size() << " diagnostic(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "fvcheck: OK (" << files.size() << " files clean)\n";
  return 0;
}
