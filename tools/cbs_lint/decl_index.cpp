#include "decl_index.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace cbslint {

namespace {

// ---------------------------------------------------------------------
// Tokenizer. Operates on the comment/string-blanked code view, so string
// contents can never look like declarations. Preprocessor lines are
// skipped entirely (includes are harvested from the raw lines instead);
// `[[...]]` attributes are dropped at this stage so the declaration
// scanner never sees them.
// ---------------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kNum, kPunct };
  Kind kind = kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based
};

bool starts_ident(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Multi-character punctuators the scanner must keep whole: `::` for
/// qualified names, `->` so trailing return types cannot unbalance the
/// angle-bracket heuristic, and the comparison/shift group so a lone
/// `>`/`<` inside them is never mistaken for a template delimiter.
const char* match_multichar_punct(const std::string& s, std::size_t i) {
  static constexpr const char* kPuncts[] = {"::", "->", "==", "!=", "<=",
                                            ">=", "<<", ">>", "&&", "||",
                                            "..."};
  for (const char* p : kPuncts) {
    const std::size_t n = std::string_view(p).size();
    if (s.compare(i, n, p) == 0) return p;
  }
  return nullptr;
}

std::vector<Tok> tokenize(const SourceFile& f) {
  std::vector<Tok> toks;
  bool continuation = false;  // previous line was a preprocessor line \-split
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& s = f.code[li];
    std::size_t i = 0;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (continuation || (i < s.size() && s[i] == '#')) {
      continuation = !f.raw[li].empty() && f.raw[li].back() == '\\';
      continue;
    }
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '[' && i + 1 < s.size() && s[i + 1] == '[') {
        // Attribute: drop through the matching ]] (attributes never span
        // lines in this tree; give up at end of line otherwise).
        const std::size_t close = s.find("]]", i + 2);
        i = close == std::string::npos ? s.size() : close + 2;
        continue;
      }
      if (starts_ident(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && is_ident_char(s[j])) ++j;
        toks.push_back({Tok::kIdent, s.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i + 1;
        while (j < s.size() && (is_ident_char(s[j]) || s[j] == '.')) ++j;
        toks.push_back({Tok::kNum, s.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      if (const char* p = match_multichar_punct(s, i)) {
        toks.push_back({Tok::kPunct, p, li + 1});
        i += std::string_view(p).size();
        continue;
      }
      toks.push_back({Tok::kPunct, std::string(1, c), li + 1});
      ++i;
    }
  }
  return toks;
}

std::string join_tokens(const std::vector<Tok>& toks, std::size_t begin,
                        std::size_t end) {
  std::string out;
  for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
    if (!out.empty()) out += ' ';
    out += toks[k].text;
  }
  return out;
}

// ---------------------------------------------------------------------
// The declaration scanner: a scope-tracking walk over the token stream.
// ---------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const SourceFile& f)
      : rel_(f.path.generic_string()), toks_(tokenize(f)) {}

  ParsedFile run() {
    while (i_ < toks_.size()) step();
    return std::move(out_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass };
    Kind kind = kNamespace;
    std::string name;
    std::size_t class_index = static_cast<std::size_t>(-1);  ///< into out_
  };

  [[nodiscard]] bool at_punct(std::size_t k, std::string_view p) const {
    return k < toks_.size() && toks_[k].kind == Tok::kPunct &&
           toks_[k].text == p;
  }
  [[nodiscard]] bool at_ident(std::size_t k, std::string_view w) const {
    return k < toks_.size() && toks_[k].kind == Tok::kIdent &&
           toks_[k].text == w;
  }

  [[nodiscard]] bool in_class() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::kClass;
  }

  [[nodiscard]] std::string namespace_prefix() const {
    std::string ns;
    for (const Scope& s : scopes_) {
      if (s.kind != Scope::kNamespace || s.name.empty()) continue;
      if (!ns.empty()) ns += "::";
      ns += s.name;
    }
    return ns;
  }

  [[nodiscard]] std::string qualified_name(const std::string& simple) const {
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    if (!q.empty()) q += "::";
    q += simple;
    return q;
  }

  /// Skips a balanced token group opened at toks_[i_] (which must be the
  /// opening token), returning the index one past the closer.
  std::size_t skip_balanced(std::size_t k, std::string_view open,
                            std::string_view close) {
    int depth = 0;
    while (k < toks_.size()) {
      if (toks_[k].kind == Tok::kPunct) {
        if (toks_[k].text == open) ++depth;
        if (toks_[k].text == close && --depth == 0) return k + 1;
      }
      ++k;
    }
    return k;
  }

  /// Skips a template argument/parameter list starting at a `<`.
  std::size_t skip_angles(std::size_t k) {
    int depth = 0;
    while (k < toks_.size()) {
      const Tok& t = toks_[k];
      if (t.kind == Tok::kPunct) {
        if (t.text == "<") ++depth;
        if (t.text == ">" && --depth == 0) return k + 1;
        if (t.text == ">>") {
          depth -= 2;
          if (depth <= 0) return k + 1;
        }
        if (t.text == "(") {  // e.g. std::function<void(int)>
          k = skip_balanced(k, "(", ")");
          continue;
        }
      }
      ++k;
    }
    return k;
  }

  void step() {
    const Tok& t = toks_[i_];
    if (t.kind == Tok::kPunct) {
      if (t.text == "}") {
        if (!scopes_.empty()) scopes_.pop_back();
        ++i_;
        return;
      }
      if (t.text == ";") {
        ++i_;
        return;
      }
      if (t.text == "{") {
        // A brace we cannot attribute (extern "C", stray initializer):
        // consume the whole block — nothing inside is a declaration the
        // rules need.
        i_ = skip_balanced(i_, "{", "}");
        return;
      }
      ++i_;
      return;
    }
    if (t.text == "namespace") {
      parse_namespace();
      return;
    }
    if (t.text == "template") {
      ++i_;
      if (at_punct(i_, "<")) i_ = skip_angles(i_);
      return;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union") {
      if (try_parse_class()) return;
      parse_declaration();  // `struct X x;` style usage in a declaration
      return;
    }
    if (t.text == "enum") {
      parse_enum();
      return;
    }
    if (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
        t.text == "static_assert") {
      skip_to_semicolon();
      return;
    }
    if (in_class() &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        at_punct(i_ + 1, ":")) {
      i_ += 2;
      return;
    }
    parse_declaration();
  }

  void parse_namespace() {
    ++i_;  // past `namespace`
    std::string name;
    while (i_ < toks_.size() && toks_[i_].kind == Tok::kIdent) {
      if (!name.empty()) name += "::";
      name += toks_[i_].text;
      ++i_;
      if (at_punct(i_, "::")) ++i_;
    }
    if (at_punct(i_, "=")) {  // namespace alias
      skip_to_semicolon();
      return;
    }
    if (at_punct(i_, "{")) {
      scopes_.push_back(
          {Scope::kNamespace, name, static_cast<std::size_t>(-1)});
      ++i_;
    }
  }

  /// Returns true when `class`/`struct` at i_ opens a definition (which it
  /// parses); false when the keyword is part of an ordinary declaration.
  bool try_parse_class() {
    std::size_t k = i_ + 1;
    std::string name;
    if (k < toks_.size() && toks_[k].kind == Tok::kIdent) {
      name = toks_[k].text;
      ++k;
    }
    if (at_ident(k, "final")) ++k;
    // Scan the (optional) base clause for the opening brace; a `;` first
    // means forward declaration, a `(` or `=` means this was a type
    // mention inside some other declaration.
    std::size_t scan = k;
    while (scan < toks_.size()) {
      const Tok& t = toks_[scan];
      if (t.kind == Tok::kPunct) {
        if (t.text == "{") break;
        if (t.text == ";") {
          i_ = scan + 1;
          return true;  // forward declaration, consumed
        }
        if (t.text == "(" || t.text == "=") return false;
        if (t.text == "<") {
          scan = skip_angles(scan);
          continue;
        }
      }
      ++scan;
    }
    if (scan >= toks_.size()) {
      i_ = scan;
      return true;
    }
    ClassDecl cls;
    cls.simple = name.empty() ? std::string("<anonymous>") : name;
    cls.qualified = qualified_name(cls.simple);
    cls.rel = rel_;
    cls.line = toks_[i_].line;
    out_.classes.push_back(std::move(cls));
    scopes_.push_back(
        {Scope::kClass, name, out_.classes.size() - 1});
    i_ = scan + 1;  // past `{`
    return true;
  }

  void parse_enum() {
    ++i_;
    if (at_ident(i_, "class") || at_ident(i_, "struct")) ++i_;
    while (i_ < toks_.size() && !at_punct(i_, "{") && !at_punct(i_, ";")) ++i_;
    if (at_punct(i_, "{")) i_ = skip_balanced(i_, "{", "}");
    if (at_punct(i_, ";")) ++i_;
  }

  void skip_to_semicolon() {
    int braces = 0;
    while (i_ < toks_.size()) {
      if (toks_[i_].kind == Tok::kPunct) {
        if (toks_[i_].text == "{") ++braces;
        if (toks_[i_].text == "}") --braces;
        if (toks_[i_].text == ";" && braces <= 0) {
          ++i_;
          return;
        }
      }
      ++i_;
    }
  }

  /// Captures a balanced group's *interior* as text, returning the index
  /// one past the closer.
  std::size_t capture_balanced(std::size_t k, std::string_view open,
                               std::string_view close, std::string* text) {
    const std::size_t begin = k + 1;
    const std::size_t end = skip_balanced(k, open, close);
    *text = join_tokens(toks_, begin, end == begin ? begin : end - 1);
    return end;
  }

  /// The statement workhorse: parses one declaration starting at i_, which
  /// may be a data member, a method declaration/definition (with ctor
  /// init-list), an out-of-line `X::f() {...}` definition, or a free
  /// function (recorded only for brace balance). Leaves i_ one past the
  /// statement.
  void parse_declaration() {
    const std::size_t stmt_begin = i_;
    const std::size_t stmt_line = toks_[i_].line;

    int angle = 0;
    bool sig_found = false;        // identifier immediately followed by `(`
    std::size_t sig_name = 0;      // token index of the declarator name
    std::string params;
    bool params_closed = false;
    std::string init_list;
    bool is_deleted = false;
    bool is_defaulted = false;
    std::size_t init_begin = static_cast<std::size_t>(-1);  // after `=`/`{`
    std::size_t prefix_end = static_cast<std::size_t>(-1);  // name zone end

    while (i_ < toks_.size()) {
      const Tok& t = toks_[i_];
      if (t.kind != Tok::kPunct) {
        ++i_;
        continue;
      }
      if (t.text == "<" && i_ > stmt_begin &&
          toks_[i_ - 1].kind == Tok::kIdent &&
          init_begin == static_cast<std::size_t>(-1)) {
        i_ = skip_angles(i_);
        continue;
      }
      if (t.text == "(" && angle == 0) {
        if (init_begin != static_cast<std::size_t>(-1)) {
          i_ = skip_balanced(i_, "(", ")");
          continue;
        }
        if (!sig_found && i_ > stmt_begin &&
            toks_[i_ - 1].kind == Tok::kIdent) {
          sig_found = true;
          sig_name = i_ - 1;
          prefix_end = sig_name;
          i_ = capture_balanced(i_, "(", ")", &params);
          params_closed = true;
          continue;
        }
        i_ = skip_balanced(i_, "(", ")");
        continue;
      }
      if (t.text == "=" && angle == 0 &&
          init_begin == static_cast<std::size_t>(-1)) {
        if (params_closed) {
          // `= default;` / `= delete;` / `= 0;` (pure virtual)
          if (at_ident(i_ + 1, "default")) is_defaulted = true;
          if (at_ident(i_ + 1, "delete")) is_deleted = true;
          skip_to_semicolon();
          finish(stmt_begin, stmt_line, sig_found, sig_name, params,
                 init_list, "", false, is_deleted, is_defaulted, prefix_end);
          return;
        }
        if (prefix_end == static_cast<std::size_t>(-1)) prefix_end = i_;
        init_begin = i_ + 1;
        // Consume the initializer through the terminating `;`.
        int braces = 0;
        int parens = 0;
        ++i_;
        while (i_ < toks_.size()) {
          const Tok& u = toks_[i_];
          if (u.kind == Tok::kPunct) {
            if (u.text == "{") ++braces;
            // A `}` closing an *enclosing* scope means the statement never
            // had a terminating `;` (e.g. an out-of-line operator= body we
            // misread as an initializer): stop without consuming it.
            if (u.text == "}" && braces-- == 0) break;
            if (u.text == "(") ++parens;
            if (u.text == ")") --parens;
            if (u.text == ";" && braces == 0 && parens == 0) break;
          }
          ++i_;
        }
        if (at_punct(i_, ";")) ++i_;
        finish(stmt_begin, stmt_line, sig_found, sig_name, params, init_list,
               "", false, false, false, prefix_end);
        return;
      }
      if (t.text == ":" && angle == 0 && params_closed && sig_found) {
        // Constructor init-list: capture up to the body brace. A `{`
        // directly after an identifier or `>` is a member brace-init
        // (`hot_{src.hot_}`); any other `{` opens the body.
        const std::size_t il_begin = i_ + 1;
        ++i_;
        int parens = 0;
        while (i_ < toks_.size()) {
          const Tok& u = toks_[i_];
          if (u.kind == Tok::kPunct) {
            if (u.text == "(") ++parens;
            if (u.text == ")") --parens;
            if (u.text == "{" && parens == 0) {
              const Tok& prev = toks_[i_ - 1];
              const bool member_brace =
                  prev.kind == Tok::kIdent ||
                  (prev.kind == Tok::kPunct && prev.text == ">");
              if (!member_brace) break;
              i_ = skip_balanced(i_, "{", "}");
              continue;
            }
          }
          ++i_;
        }
        init_list = join_tokens(toks_, il_begin, i_);
        // Fall through: i_ sits on the body `{`.
        continue;
      }
      if (t.text == ":" && angle == 0 && !sig_found &&
          init_begin == static_cast<std::size_t>(-1)) {
        // Bitfield — treat the width expression as an initializer-ish tail.
        if (prefix_end == static_cast<std::size_t>(-1)) prefix_end = i_;
        skip_to_semicolon();
        finish(stmt_begin, stmt_line, false, 0, "", "", "", false, false,
               false, prefix_end);
        return;
      }
      if (t.text == "{" && angle == 0) {
        if (sig_found && params_closed) {
          std::string body;
          i_ = capture_balanced(i_, "{", "}", &body);
          if (at_punct(i_, ";")) ++i_;
          finish(stmt_begin, stmt_line, true, sig_name, params, init_list,
                 body, true, false, false, prefix_end);
          return;
        }
        // Member brace-initializer: `EventId timer_event_{};`
        if (prefix_end == static_cast<std::size_t>(-1)) prefix_end = i_;
        i_ = skip_balanced(i_, "{", "}");
        continue;
      }
      if (t.text == ";") {
        if (prefix_end == static_cast<std::size_t>(-1)) prefix_end = i_;
        ++i_;
        finish(stmt_begin, stmt_line, sig_found, sig_name, params, init_list,
               "", false, false, false, prefix_end);
        return;
      }
      ++i_;
    }
    // Ran off the end of the file mid-statement: drop it.
  }

  /// Records the parsed statement as a member or method of the current
  /// class, or as an out-of-line definition at namespace scope.
  void finish(std::size_t stmt_begin, std::size_t stmt_line, bool sig_found,
              std::size_t sig_name, const std::string& params,
              const std::string& init_list, const std::string& body,
              bool has_body, bool is_deleted, bool is_defaulted,
              std::size_t prefix_end) {
    if (sig_found) {
      MethodDecl m;
      // `~Link` destructors: the tilde precedes the name token.
      m.name = toks_[sig_name].text;
      std::size_t chain_end = sig_name;
      if (sig_name > stmt_begin && at_punct(sig_name - 1, "~")) {
        m.name = "~" + m.name;
        chain_end = sig_name - 1;
      }
      m.params = params;
      m.init_list = init_list;
      m.body = body;
      m.line = stmt_line;
      m.has_body = has_body;
      m.is_deleted = is_deleted;
      m.is_defaulted = is_defaulted;
      // Qualifier chain (`Link :: HotPool ::` before the name).
      std::vector<std::string> chain;
      std::size_t k = chain_end;
      while (k >= stmt_begin + 2 && at_punct(k - 1, "::") &&
             k >= 2 && toks_[k - 2].kind == Tok::kIdent) {
        chain.insert(chain.begin(), toks_[k - 2].text);
        if (k < 2) break;
        k -= 2;
      }
      if (in_class() && chain.empty()) {
        out_.classes[scopes_.back().class_index].methods.push_back(
            std::move(m));
      } else if (!in_class() && !chain.empty()) {
        OutOfLineDef def;
        def.ns = namespace_prefix();
        def.class_path = std::move(chain);
        def.method = std::move(m);
        def.rel = rel_;
        out_.defs.push_back(std::move(def));
      }
      return;
    }
    if (!in_class()) return;
    // Data member: name = last identifier in the name zone, cut at the
    // first top-level `[` (array suffix).
    std::size_t zone_end = prefix_end;
    for (std::size_t k = stmt_begin; k < zone_end; ++k) {
      if (at_punct(k, "[")) {
        zone_end = k;
        break;
      }
    }
    std::size_t name_idx = static_cast<std::size_t>(-1);
    for (std::size_t k = stmt_begin; k < zone_end; ++k) {
      if (toks_[k].kind == Tok::kIdent) name_idx = k;
      if (toks_[k].kind == Tok::kIdent && toks_[k].text == "operator") return;
    }
    if (name_idx == static_cast<std::size_t>(-1)) return;
    MemberDecl d;
    d.name = toks_[name_idx].text;
    d.line = toks_[name_idx].line;
    for (std::size_t k = stmt_begin; k < name_idx; ++k) {
      const Tok& t = toks_[k];
      if (t.kind == Tok::kIdent) {
        if (t.text == "static") d.is_static = true;
        if (t.text == "mutable" || t.text == "inline") continue;
      }
      if (!d.type_text.empty()) d.type_text += ' ';
      d.type_text += t.text;
    }
    if (d.type_text.empty()) return;  // no type tokens: not a declaration
    out_.classes[scopes_.back().class_index].members.push_back(std::move(d));
  }

  std::string rel_;
  std::vector<Tok> toks_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
  ParsedFile out_;
};

void collect_includes(const SourceFile& f, std::vector<IncludeEdge>* out) {
  const std::string rel = f.path.generic_string();
  for (std::size_t li = 0; li < f.raw.size(); ++li) {
    const std::string& line = f.raw[li];
    std::size_t i = 0;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    static constexpr std::string_view kInclude = "include";
    if (line.compare(i, kInclude.size(), kInclude) != 0) continue;
    const std::size_t open = line.find('"', i + kInclude.size());
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out->push_back({rel, li + 1, line.substr(open + 1, close - open - 1)});
  }
}

}  // namespace

ParsedFile parse_file(const SourceFile& f) {
  Parser p(f);
  ParsedFile out = p.run();
  collect_includes(f, &out.includes);
  return out;
}

void DeclIndex::build(std::vector<ParsedFile> parsed) {
  for (ParsedFile& pf : parsed) {
    for (ClassDecl& cls : pf.classes) {
      auto [it, inserted] = classes_.try_emplace(cls.qualified, cls);
      if (!inserted) {
        // Re-opened (template specialization, ifdef'd twin): merge.
        ClassDecl& dst = it->second;
        dst.members.insert(dst.members.end(), cls.members.begin(),
                           cls.members.end());
        dst.methods.insert(dst.methods.end(), cls.methods.begin(),
                           cls.methods.end());
      }
    }
    for (IncludeEdge& e : pf.includes) includes_.push_back(std::move(e));
  }
  // Attach out-of-line definitions now that every class is known.
  for (ParsedFile& pf : parsed) {
    for (OutOfLineDef& def : pf.defs) {
      std::string chain;
      for (const std::string& part : def.class_path) {
        if (!chain.empty()) chain += "::";
        chain += part;
      }
      std::string key = def.ns.empty() ? chain : def.ns + "::" + chain;
      auto it = classes_.find(key);
      if (it == classes_.end()) {
        // The definition's namespace may differ from where the class was
        // declared (e.g. `using`-pulled); accept a unique suffix match.
        const std::string suffix = "::" + chain;
        auto unique = classes_.end();
        for (auto c = classes_.begin(); c != classes_.end(); ++c) {
          const std::string& q = c->first;
          const bool match =
              q == chain ||
              (q.size() > suffix.size() &&
               q.compare(q.size() - suffix.size(), suffix.size(), suffix) ==
                   0);
          if (!match) continue;
          if (unique != classes_.end()) {
            unique = classes_.end();
            break;  // ambiguous: drop
          }
          unique = c;
        }
        if (unique == classes_.end()) continue;
        it = unique;
      }
      it->second.methods.push_back(std::move(def.method));
    }
  }
}

const ClassDecl* DeclIndex::enclosing(const std::string& qualified) const {
  const std::size_t cut = qualified.rfind("::");
  if (cut == std::string::npos) return nullptr;
  const auto it = classes_.find(qualified.substr(0, cut));
  return it == classes_.end() ? nullptr : &it->second;
}

}  // namespace cbslint
