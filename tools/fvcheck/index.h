#ifndef FARVIEW_TOOLS_FVCHECK_INDEX_H_
#define FARVIEW_TOOLS_FVCHECK_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace fvcheck {

/// Whole-tree symbol/ownership index (DESIGN.md §11): pass 1 of the
/// two-phase analyzer. It is built once from every lexed file in the batch
/// and then consumed read-only by the cross-file rules (pass 2):
/// domain-confinement and config-coupling.
///
/// Like the rest of fvcheck this is a token-level approximation, not a
/// compiler front end: the extractors are tuned to Google-style C++ as
/// written in this tree and are biased toward false negatives — a
/// declaration the walker cannot classify is simply not indexed.

/// One data member of an indexed type.
struct IndexMember {
  std::string name;
  int line = 0;  ///< declaration line in the owning type's file
  /// The default-member-initializer contains a numeric literal other than
  /// 0/1 — i.e. a calibrated magnitude, not a switch or sentinel. Drives
  /// the config-coupling rule.
  bool calibrated_init = false;
};

/// One struct/class declaration, keyed by its qualified name with nesting
/// spelled `Outer::Inner` (enclosing namespaces are not part of the key —
/// the tree has no type-name collisions across namespaces).
struct IndexType {
  std::string qual_name;
  std::string file;
  int line = 0;
  std::vector<IndexMember> members;  ///< data members, declaration order

  const IndexMember* FindMember(const std::string& name) const;
};

/// One namespace-scope (or function-local static) variable.
struct IndexVar {
  std::string name;
  std::string file;
  int line = 0;
  bool is_const = false;        ///< const / constexpr / constinit
  bool is_extern_decl = false;  ///< pure `extern` declaration, no definition
  bool is_static_local = false; ///< function-local `static`, not namespace scope
  bool calibrated_init = false; ///< see IndexMember::calibrated_init
};

/// The index itself. All containers are keyed/ordered deterministically so
/// rules iterating them produce a stable diagnostic order.
struct SymbolIndex {
  /// Types by qualified name (`NodeStats`, `NodeStats::QpStats`, ...).
  std::map<std::string, IndexType> types;

  /// Namespace-scope variables and function-local statics, in file order.
  std::vector<IndexVar> vars;

  /// File → owning directory ("src/sim/parallel" for
  /// "src/sim/parallel/mailbox.h"; "" for a bare filename).
  std::map<std::string, std::string> file_dir;

  /// Trailing-underscore data-member name → set of directories owning a
  /// type that declares it. A name owned by exactly one directory
  /// identifies that directory's state unambiguously; names declared in
  /// several directories are never used for ownership decisions.
  std::map<std::string, std::set<std::string>> member_owner_dirs;

  /// CamelCase function names declared (anywhere in the batch) to return
  /// Status / Result<T> by value...
  std::set<std::string> status_fns;
  /// ...minus resolution: names also declared with some other return type.
  /// Name-based matching cannot tell overloads apart, so ambiguous names
  /// are never flagged (false negatives over false positives).
  std::set<std::string> ambiguous_fns;

  const IndexType* FindType(const std::string& qual_name) const;
};

/// Builds the index over the whole batch. `paths[i]` names `lexed[i]`;
/// paths must be repo-relative with '/' separators.
SymbolIndex BuildIndex(const std::vector<std::string>& paths,
                       const std::vector<LexedFile>& lexed);

}  // namespace fvcheck

#endif  // FARVIEW_TOOLS_FVCHECK_INDEX_H_
