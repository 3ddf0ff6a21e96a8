#include "index.h"

#include <cstddef>

namespace fvcheck {

namespace {

using Kind = Token::Kind;

bool IsPunct(const Token& t, const char* p) {
  return t.kind == Kind::kPunct && t.text == p;
}
bool IsIdent(const Token& t, const char* name) {
  return t.kind == Kind::kIdent && t.text == name;
}
bool IsUpperCamel(const std::string& s) {
  return !s.empty() && s[0] >= 'A' && s[0] <= 'Z';
}
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
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

/// Keywords that may precede a call expression without being a return type
/// (collection must not treat `return Foo(...)` as "Foo returns something
/// other than Status").
const std::set<std::string>& NonTypeKeywords() {
  static const std::set<std::string> kSet = {
      "return", "new",    "delete", "throw",  "else",     "case",
      "goto",   "co_return", "co_await", "co_yield", "operator", "not",
      "and",    "or",     "do",     "in",
  };
  return kSet;
}

/// Gathers CamelCase function names by declared return type. Name-based (a
/// tokenizer cannot resolve overloads), so the caller subtracts names that
/// also appear with non-Status returns.
void CollectReturnTypes(const LexedFile& lex, std::set<std::string>* status,
                        std::set<std::string>* other) {
  const auto& toks = lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    std::size_t name_idx = 0;
    bool is_status = false;
    if (t == "Status" || t == "Result") {
      // Skip the type's own declaration (`class Status {`).
      if (i > 0 && toks[i - 1].kind == Kind::kIdent &&
          (toks[i - 1].text == "class" || toks[i - 1].text == "struct")) {
        continue;
      }
      std::size_t j = i + 1;
      if (t == "Result") {
        if (toks[j].kind != Kind::kPunct || toks[j].text != "<") continue;
        j = SkipBalanced(toks, j, toks.size(), "<", ">");
      }
      // By-reference / by-pointer accessors are cheap to re-query; only
      // by-value returns are flagged when dropped.
      if (j < toks.size() && toks[j].kind == Kind::kPunct &&
          (toks[j].text == "&" || toks[j].text == "*")) {
        continue;
      }
      if (j >= toks.size() || toks[j].kind != Kind::kIdent) continue;
      name_idx = j;
      is_status = true;
    } else if (IsUpperCamel(toks[i + 1].text) &&
               toks[i + 1].kind == Kind::kIdent &&
               NonTypeKeywords().count(t) == 0 && t != "Status" &&
               t != "Result") {
      // `<ident> <CamelName> (` with a non-Status leading ident: a
      // declaration with some other return type.
      name_idx = i + 1;
    } else {
      continue;
    }
    const std::string& name = toks[name_idx].text;
    if (!IsUpperCamel(name)) continue;
    if (name_idx + 1 >= toks.size() ||
        toks[name_idx + 1].kind != Kind::kPunct ||
        toks[name_idx + 1].text != "(") {
      continue;
    }
    (is_status ? status : other)->insert(name);
  }
}

/// Scope-stack declaration walker for one file. The grammar subset it
/// understands is exactly what the tree's Google-style code uses; anything
/// it cannot classify is skipped, never mis-indexed (false-negative bias).
class FileWalker {
 public:
  FileWalker(const std::string& path, const LexedFile& lex, SymbolIndex* idx)
      : path_(path), toks_(lex.tokens), idx_(idx) {}

  void Run() {
    std::size_t i = 0;
    while (i < toks_.size()) {
      // Head of the next declaration/statement: everything up to the first
      // ';', '{' or '}' outside parens/brackets.
      std::size_t head_end = i;
      int paren = 0;
      while (head_end < toks_.size()) {
        const Token& t = toks_[head_end];
        if (t.kind == Kind::kPunct) {
          if (t.text == "(" || t.text == "[") ++paren;
          else if ((t.text == ")" || t.text == "]") && paren > 0) --paren;
          else if (paren == 0 &&
                   (t.text == ";" || t.text == "{" || t.text == "}")) {
            break;
          }
        }
        ++head_end;
      }
      if (head_end >= toks_.size()) break;
      const std::string& term = toks_[head_end].text;
      if (i == head_end) {  // bare terminator
        if (term == "}" && !stack_.empty()) stack_.pop_back();
        if (term == "{") Push(Scope::kBlock);  // bare block statement
        i = head_end + 1;
        continue;
      }
      ProcessStatement(i, head_end, term);
      if (term == "}" && !stack_.empty()) stack_.pop_back();
      i = head_end + 1;
    }
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kType, kEnum, kFunction, kBlock } kind;
    std::string type_qual;  ///< kType: qualified name
  };

  Scope::Kind CurrentKind() const {
    return stack_.empty() ? Scope::kNamespace : stack_.back().kind;
  }
  void Push(Scope::Kind k, std::string qual = "") {
    stack_.push_back(Scope{k, std::move(qual)});
  }

  /// Qualified name of the innermost enclosing type ("" at namespace scope).
  const std::string& EnclosingTypeQual() const {
    static const std::string kEmpty;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kType) return it->type_qual;
    }
    return kEmpty;
  }

  bool HeadHas(std::size_t begin, std::size_t end, const char* ident) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (IsIdent(toks_[k], ident)) return true;
    }
    return false;
  }
  bool HeadHasConst(std::size_t begin, std::size_t end) const {
    return HeadHas(begin, end, "const") || HeadHas(begin, end, "constexpr") ||
           HeadHas(begin, end, "constinit");
  }

  /// Declared name of a variable head: the last identifier before the
  /// initializer (or before the terminator when there is none). Empty when
  /// the head does not look like a declaration (fewer than two identifiers
  /// and no initializer).
  std::string VarName(std::size_t begin, std::size_t end,
                      std::size_t eq, int* line) const {
    const std::size_t span_end = eq != kNpos ? eq : end;
    std::string name;
    int idents = 0;
    int brackets = 0;
    for (std::size_t k = begin; k < span_end; ++k) {
      // Array declarators: `hist[kBuckets]` names `hist`, not the extent
      // identifier inside the brackets.
      if (toks_[k].kind == Kind::kPunct) {
        if (toks_[k].text == "[") ++brackets;
        if (toks_[k].text == "]" && brackets > 0) --brackets;
        continue;
      }
      if (brackets == 0 && toks_[k].kind == Kind::kIdent) {
        ++idents;
        name = toks_[k].text;
        *line = toks_[k].line;
      }
    }
    if (idents < 2 && eq == kNpos) return "";
    return name;
  }

  /// True when the initializer span contains a numeric literal other than a
  /// bare 0/1 — i.e. a calibrated magnitude rather than a switch/sentinel.
  bool CalibratedInit(std::size_t begin, std::size_t end) const {
    for (std::size_t k = begin; k < end && k < toks_.size(); ++k) {
      if (toks_[k].kind != Kind::kNumber) continue;
      const std::string& v = toks_[k].text;
      if (v != "0" && v != "1" && v != "0.0" && v != "1.0") return true;
    }
    return false;
  }

  void ProcessStatement(std::size_t i, std::size_t head_end,
                        const std::string& term) {
    switch (CurrentKind()) {
      case Scope::kEnum:
        // Enumerators are not members; swallow them.
        if (term == "{") Push(Scope::kBlock);
        return;
      case Scope::kFunction:
      case Scope::kBlock:
        DetectLocalStatic(i, head_end);
        if (term == "{") Push(Scope::kBlock);
        return;
      case Scope::kNamespace:
      case Scope::kType:
        ProcessDeclaration(i, head_end, term);
        return;
    }
  }

  void DetectLocalStatic(std::size_t i, std::size_t head_end) {
    if (!IsIdent(toks_[i], "static")) return;
    if (HeadHasConst(i, head_end)) return;
    std::size_t eq = kNpos;
    for (std::size_t k = i; k < head_end; ++k) {
      if (IsPunct(toks_[k], "(")) return;  // static function-local lambdas &c.
      if (IsPunct(toks_[k], "=")) {
        eq = k;
        break;
      }
    }
    int line = toks_[i].line;
    const std::string name = VarName(i, head_end, eq, &line);
    if (name.empty()) return;
    IndexVar v;
    v.name = name;
    v.file = path_;
    v.line = line;
    v.is_static_local = true;
    v.calibrated_init =
        eq != kNpos && CalibratedInit(eq + 1, head_end);
    idx_->vars.push_back(std::move(v));
  }

  void ProcessDeclaration(std::size_t i, std::size_t head_end,
                          const std::string& term) {
    const bool at_type = CurrentKind() == Scope::kType;

    // Strip access specifiers riding in front of a member declaration.
    while (at_type && i + 1 < head_end &&
           (IsIdent(toks_[i], "public") || IsIdent(toks_[i], "private") ||
            IsIdent(toks_[i], "protected")) &&
           IsPunct(toks_[i + 1], ":")) {
      i += 2;
    }
    // Strip a template parameter list; the declaration follows it.
    if (i < head_end && IsIdent(toks_[i], "template") && i + 1 < head_end &&
        IsPunct(toks_[i + 1], "<")) {
      i = SkipBalanced(toks_, i + 1, head_end, "<", ">");
    }
    if (i >= head_end) {
      if (term == "{") Push(Scope::kBlock);
      return;
    }
    const Token& first = toks_[i];

    if (!at_type && first.text == "namespace") {
      if (term == "{") Push(Scope::kNamespace);
      return;
    }
    if (first.text == "extern" && term == "{") {  // extern "C" { ... }
      Push(Scope::kNamespace);
      return;
    }

    // Type declaration: the last class/struct/union/enum keyword in the
    // head directly followed by a plain identifier names the type (skips
    // over `template <class T>` and `enum class`).
    std::size_t name_i = kNpos;
    bool saw_enum = false;
    for (std::size_t k = i; k + 1 < head_end; ++k) {
      if (toks_[k].kind != Kind::kIdent) continue;
      const std::string& kw = toks_[k].text;
      if (kw == "enum") saw_enum = true;
      if (kw != "class" && kw != "struct" && kw != "union" && kw != "enum") {
        continue;
      }
      // An attribute may sit between the keyword and the name
      // (`class [[nodiscard]] Status`); the lexer emits '[' '[' singly, so
      // one balanced skip crosses the whole `[[...]]`.
      std::size_t nk = k + 1;
      while (nk + 1 < head_end && IsPunct(toks_[nk], "[") &&
             IsPunct(toks_[nk + 1], "[")) {
        nk = SkipBalanced(toks_, nk, head_end, "[", "]");
      }
      if (nk >= head_end) continue;
      const Token& next = toks_[nk];
      if (next.kind == Kind::kIdent && next.text != "class" &&
          next.text != "struct" && next.text != "final") {
        name_i = nk;
      }
    }
    if (name_i != kNpos) {
      if (term != "{") return;  // forward / friend declaration
      if (saw_enum) {
        Push(Scope::kEnum);
        return;
      }
      const std::string& outer = EnclosingTypeQual();
      const std::string qual =
          outer.empty() ? toks_[name_i].text
                        : outer + "::" + toks_[name_i].text;
      IndexType& ty = idx_->types[qual];
      if (ty.qual_name.empty()) {
        ty.qual_name = qual;
        ty.file = path_;
        ty.line = toks_[name_i].line;
      }
      Push(Scope::kType, qual);
      return;
    }

    static const std::set<std::string> kSkipLeads = {
        "using", "typedef", "friend", "static_assert", "template",
        "return", "if",     "for",    "while",         "switch",
        "do",     "else",   "case",   "goto",
    };
    if (kSkipLeads.count(first.text) > 0 || HeadHas(i, head_end, "operator")) {
      if (term == "{") Push(Scope::kFunction);
      return;
    }

    // Function vs variable: the first structural '(' or '=' outside
    // template angles decides ('(' inside `std::function<void(int)>` is a
    // type argument, not a parameter list).
    std::size_t lparen = kNpos;
    std::size_t eq = kNpos;
    int angle = 0;
    for (std::size_t k = i; k < head_end; ++k) {
      if (toks_[k].kind != Kind::kPunct) continue;
      const std::string& p = toks_[k].text;
      if (p == "<") {
        ++angle;
      } else if (p == ">") {
        if (angle > 0) --angle;
      } else if (angle == 0 && p == "(") {
        lparen = k;
        break;
      } else if (angle == 0 && p == "=") {
        eq = k;
        break;
      }
    }

    if (lparen != kNpos) {
      // Functions are not indexed; a body only opens a scope, so its local
      // statics are still seen.
      if (term == "{") Push(Scope::kFunction);
      return;
    }

    int line = first.line;
    const std::string name = VarName(i, head_end, eq, &line);
    if (name.empty()) {
      if (term == "{") Push(Scope::kBlock);
      return;
    }
    // Brace initialization: the "head" stops at '{', so look ahead into the
    // balanced braces for the calibration scan.
    std::size_t init_begin = eq != kNpos ? eq + 1 : head_end;
    std::size_t init_end = head_end;
    if (eq == kNpos && term == "{") {
      init_begin = head_end;
      init_end = SkipBalanced(toks_, head_end, toks_.size(), "{", "}");
    } else if (eq != kNpos && term == "{") {
      init_end = SkipBalanced(toks_, head_end, toks_.size(), "{", "}");
    }
    const bool calibrated = CalibratedInit(init_begin, init_end);

    if (at_type) {
      IndexType& ty = idx_->types[EnclosingTypeQual()];
      IndexMember m;
      m.name = name;
      m.line = line;
      m.calibrated_init = calibrated;
      ty.members.push_back(std::move(m));
    } else {
      IndexVar v;
      v.name = name;
      v.file = path_;
      v.line = line;
      v.is_const = HeadHasConst(i, head_end);
      v.is_extern_decl =
          HeadHas(i, head_end, "extern") && eq == kNpos && term == ";";
      v.calibrated_init = calibrated;
      idx_->vars.push_back(std::move(v));
    }
    if (term == "{") Push(Scope::kBlock);
  }

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  const std::string& path_;
  const std::vector<Token>& toks_;
  SymbolIndex* idx_;
  std::vector<Scope> stack_;
};

}  // namespace

const IndexMember* IndexType::FindMember(const std::string& name) const {
  for (const IndexMember& m : members) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const IndexType* SymbolIndex::FindType(const std::string& qual_name) const {
  auto it = types.find(qual_name);
  return it == types.end() ? nullptr : &it->second;
}

SymbolIndex BuildIndex(const std::vector<std::string>& paths,
                       const std::vector<LexedFile>& lexed) {
  SymbolIndex idx;
  for (std::size_t i = 0; i < paths.size() && i < lexed.size(); ++i) {
    const std::size_t slash = paths[i].rfind('/');
    idx.file_dir[paths[i]] =
        slash == std::string::npos ? "" : paths[i].substr(0, slash);
    FileWalker(paths[i], lexed[i], &idx).Run();
  }

  // Trailing-underscore member → owning directories. Only names owned by a
  // single directory can identify that directory's state.
  for (const auto& [qual, ty] : idx.types) {
    const std::string& dir = idx.file_dir[ty.file];
    for (const IndexMember& m : ty.members) {
      if (EndsWith(m.name, "_")) {
        idx.member_owner_dirs[m.name].insert(dir);
      }
    }
  }

  // Function return types (consumed by unchecked-status).
  std::set<std::string> other_fns;
  for (const LexedFile& lf : lexed) {
    CollectReturnTypes(lf, &idx.status_fns, &other_fns);
  }
  for (const std::string& n : idx.status_fns) {
    if (other_fns.count(n) > 0) idx.ambiguous_fns.insert(n);
  }
  return idx;
}

}  // namespace fvcheck
