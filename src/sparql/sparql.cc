#include "sparql/sparql.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <unordered_map>

#include "common/macros.h"
#include "core/bgp.h"
#include "obs/trace.h"
#include "plan/optimizer.h"
#include "plan/physical.h"

namespace swan::sparql {

namespace {

// --- Lexer ----------------------------------------------------------------

enum class TokenKind {
  kKeyword,   // SELECT / WHERE / FILTER / ... (case-insensitive)
  kVariable,  // ?name
  kIri,       // <...>
  kLiteral,   // "..." with optional @lang / ^^<iri> suffix
  kPrefixedName,  // ns:local  (also bare "ns:" in PREFIX declarations)
  kStar,
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kNumber,  // digits with an optional fraction
  kOp,      // < <= > >= = !=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  // The token's source text, except that a variable's drops its '?'.
  std::string text;
  size_t offset = 0;  // byte offset of the token's first character
  int line = 1;
  int column = 1;
};

// The token's length in the source text.
size_t SourceLength(const Token& token) {
  return token.text.size() + (token.kind == TokenKind::kVariable ? 1 : 0);
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    for (;;) {
      SkipWhitespaceAndComments();
      Token token;
      token.offset = pos_;
      token.line = line_;
      token.column = column_;
      if (AtEnd()) {
        token.kind = TokenKind::kEnd;
        out.push_back(token);
        return out;
      }
      const char c = Peek();
      if (c == '?') {
        Advance();
        token.kind = TokenKind::kVariable;
        while (!AtEnd() && (std::isalnum(Peek()) || Peek() == '_')) {
          token.text += Take();
        }
        if (token.text.empty()) return Error(token, "empty variable name");
      } else if (c == '<') {
        // '<' opens either an IRI or a comparison operator: it is an IRI
        // exactly when a '>' follows before any character that cannot be
        // part of an IRI (whitespace, quotes, parens, another '<', '?').
        if (LooksLikeIri()) {
          token.kind = TokenKind::kIri;
          token.text += Take();
          while (!AtEnd() && Peek() != '>') token.text += Take();
          if (AtEnd()) return Error(token, "unterminated IRI");
          token.text += Take();  // '>'
        } else {
          token.kind = TokenKind::kOp;
          token.text += Take();
          if (!AtEnd() && Peek() == '=') token.text += Take();
        }
      } else if (c == '>') {
        token.kind = TokenKind::kOp;
        token.text += Take();
        if (!AtEnd() && Peek() == '=') token.text += Take();
      } else if (c == '=') {
        token.kind = TokenKind::kOp;
        token.text += Take();
      } else if (c == '!') {
        token.text += Take();
        if (AtEnd() || Peek() != '=') return Error(token, "expected '!='");
        token.text += Take();
        token.kind = TokenKind::kOp;
      } else if (c == '"') {
        token.kind = TokenKind::kLiteral;
        token.text += Take();
        while (!AtEnd() && Peek() != '"') {
          if (Peek() == '\\') token.text += Take();
          if (AtEnd()) break;
          token.text += Take();
        }
        if (AtEnd()) return Error(token, "unterminated literal");
        token.text += Take();  // closing quote
        // Optional @lang or ^^<iri> suffix, kept verbatim.
        if (!AtEnd() && Peek() == '@') {
          while (!AtEnd() && (std::isalnum(Peek()) || Peek() == '@' ||
                              Peek() == '-')) {
            token.text += Take();
          }
        } else if (!AtEnd() && Peek() == '^') {
          token.text += Take();
          if (AtEnd() || Peek() != '^') return Error(token, "expected '^^'");
          token.text += Take();
          if (AtEnd() || Peek() != '<') {
            return Error(token, "expected IRI after '^^'");
          }
          while (!AtEnd() && Peek() != '>') token.text += Take();
          if (AtEnd()) return Error(token, "unterminated datatype IRI");
          token.text += Take();
        }
      } else if (c == '*') {
        token.kind = TokenKind::kStar;
        token.text = Take();
      } else if (c == '{') {
        token.kind = TokenKind::kLBrace;
        token.text = Take();
      } else if (c == '}') {
        token.kind = TokenKind::kRBrace;
        token.text = Take();
      } else if (c == '(') {
        token.kind = TokenKind::kLParen;
        token.text = Take();
      } else if (c == ')') {
        token.kind = TokenKind::kRParen;
        token.text = Take();
      } else if (c == ',') {
        token.kind = TokenKind::kComma;
        token.text = Take();
      } else if (c == '.') {
        token.kind = TokenKind::kDot;
        token.text = Take();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        token.kind = TokenKind::kNumber;
        while (!AtEnd() && std::isdigit(Peek())) token.text += Take();
        // Fraction, only when a digit follows the '.' — so the pattern
        // separator in "LIMIT 10 ." stays a dot token.
        if (!AtEnd() && Peek() == '.' && pos_ + 1 < input_.size() &&
            std::isdigit(static_cast<unsigned char>(input_[pos_ + 1]))) {
          token.text += Take();
          while (!AtEnd() && std::isdigit(Peek())) token.text += Take();
        }
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        // Keyword or prefixed name.
        while (!AtEnd() &&
               (std::isalnum(Peek()) || Peek() == '_' || Peek() == '-')) {
          token.text += Take();
        }
        if (!AtEnd() && Peek() == ':') {
          token.text += Take();  // ':'
          while (!AtEnd() &&
                 (std::isalnum(Peek()) || Peek() == '_' || Peek() == '-' ||
                  Peek() == '.' || Peek() == '/')) {
            token.text += Take();
          }
          token.kind = TokenKind::kPrefixedName;
        } else {
          token.kind = TokenKind::kKeyword;
        }
      } else if (c == ':') {
        // Prefixed name with the empty prefix, e.g. ":local".
        token.text += Take();
        while (!AtEnd() &&
               (std::isalnum(Peek()) || Peek() == '_' || Peek() == '-' ||
                Peek() == '.' || Peek() == '/')) {
          token.text += Take();
        }
        token.kind = TokenKind::kPrefixedName;
      } else {
        token.text = std::string(1, c);
        return Error(token, "unexpected character '" + token.text + "'");
      }
      out.push_back(std::move(token));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Take() {
    const char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  void Advance() { Take(); }

  bool LooksLikeIri() const {
    for (size_t j = pos_ + 1; j < input_.size(); ++j) {
      const char ch = input_[j];
      if (ch == '>') return true;
      if (std::isspace(static_cast<unsigned char>(ch)) || ch == '<' ||
          ch == '"' || ch == '(' || ch == ')' || ch == ',' || ch == '?') {
        return false;
      }
    }
    return false;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      if (std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      } else if (Peek() == '#') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else {
        return;
      }
    }
  }

  Status Error(const Token& at, const std::string& message) const {
    return Status::InvalidArgument(std::to_string(at.line) + ":" +
                                   std::to_string(at.column) + ": " + message);
  }

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// --- Parser ----------------------------------------------------------------

bool KeywordIs(const Token& token, std::string_view keyword) {
  if (token.kind != TokenKind::kKeyword) return false;
  if (token.text.size() != keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(token.text[i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Run() {
    ParsedQuery query;
    // PREFIX declarations.
    while (KeywordIs(Current(), "PREFIX")) {
      Next();
      if (Current().kind != TokenKind::kPrefixedName ||
          Current().text.back() != ':') {
        return Error("expected prefix name ending in ':'");
      }
      const std::string prefix =
          Current().text.substr(0, Current().text.size() - 1);
      Next();
      if (Current().kind != TokenKind::kIri) {
        return Error("expected IRI after prefix name");
      }
      // Strip the angle brackets; they are re-added on expansion.
      prefixes_[prefix] =
          Current().text.substr(1, Current().text.size() - 2);
      Next();
    }

    if (!KeywordIs(Current(), "SELECT")) return Error("expected SELECT");
    Next();
    if (KeywordIs(Current(), "DISTINCT")) {
      query.distinct = true;
      Next();
    }
    if (Current().kind == TokenKind::kStar) {
      Next();
    } else {
      while (Current().kind == TokenKind::kVariable) {
        query.projection.push_back(Current().text);
        Next();
      }
      if (query.projection.empty()) {
        return Error("expected '*' or at least one ?variable");
      }
    }

    if (!KeywordIs(Current(), "WHERE")) return Error("expected WHERE");
    Next();
    if (Current().kind != TokenKind::kLBrace) return Error("expected '{'");
    Next();

    if (Current().kind == TokenKind::kLBrace) {
      // Union form: WHERE { { ... } UNION { ... } ... }.
      for (;;) {
        Next();  // inner '{'
        ParsedBranch branch;
        SWAN_RETURN_NOT_OK(ParseBranchBody(&branch));
        Next();  // inner '}' (ParseBranchBody stops on it)
        query.branches.push_back(std::move(branch));
        if (KeywordIs(Current(), "UNION")) {
          Next();
          if (Current().kind != TokenKind::kLBrace) {
            return Error("expected '{' after UNION");
          }
          continue;
        }
        break;
      }
      if (Current().kind != TokenKind::kRBrace) return Error("expected '}'");
      Next();
    } else {
      ParsedBranch branch;
      SWAN_RETURN_NOT_OK(ParseBranchBody(&branch));
      Next();  // '}'
      query.branches.push_back(std::move(branch));
    }

    // LIMIT / OFFSET, in either order, each at most once.
    bool saw_limit = false, saw_offset = false;
    while (KeywordIs(Current(), "LIMIT") || KeywordIs(Current(), "OFFSET")) {
      const bool is_limit = KeywordIs(Current(), "LIMIT");
      if (is_limit && saw_limit) return Error("duplicate LIMIT");
      if (!is_limit && saw_offset) return Error("duplicate OFFSET");
      Next();
      if (Current().kind != TokenKind::kNumber ||
          Current().text.find('.') != std::string::npos) {
        return Error(is_limit ? "expected number after LIMIT"
                              : "expected number after OFFSET");
      }
      if (is_limit) {
        query.limit = std::stoull(Current().text);
        saw_limit = true;
      } else {
        query.offset = std::stoull(Current().text);
        saw_offset = true;
      }
      Next();
    }
    if (Current().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Current().text + "'");
    }
    for (const ParsedBranch& branch : query.branches) {
      if (branch.required.patterns.empty()) return Error("empty WHERE block");
    }
    return query;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(std::to_string(Current().line) + ":" +
                                   std::to_string(Current().column) + ": " +
                                   message);
  }

  // Parses patterns, filters and OPTIONAL groups until the closing '}'
  // (not consumed).
  Status ParseBranchBody(ParsedBranch* branch) {
    while (Current().kind != TokenKind::kRBrace) {
      if (Current().kind == TokenKind::kEnd) return Error("expected '}'");
      if (KeywordIs(Current(), "UNION")) {
        return Error("UNION branches must each be enclosed in '{ ... }'");
      }
      if (KeywordIs(Current(), "FILTER")) {
        ParsedFilter filter;
        SWAN_RETURN_NOT_OK(ParseFilter(&filter));
        branch->required.filters.push_back(std::move(filter));
        continue;
      }
      if (KeywordIs(Current(), "OPTIONAL")) {
        Next();
        if (Current().kind != TokenKind::kLBrace) {
          return Error("expected '{' after OPTIONAL");
        }
        Next();
        ParsedGroup group;
        SWAN_RETURN_NOT_OK(ParseGroupBody(&group));
        Next();  // '}'
        if (group.patterns.empty()) {
          return Error("empty OPTIONAL block");
        }
        branch->optionals.push_back(std::move(group));
        continue;
      }
      SWAN_RETURN_NOT_OK(ParsePatternInto(&branch->required));
    }
    return Status::OK();
  }

  // Patterns + filters until '}' (not consumed); no nesting.
  Status ParseGroupBody(ParsedGroup* group) {
    while (Current().kind != TokenKind::kRBrace) {
      if (Current().kind == TokenKind::kEnd) return Error("expected '}'");
      if (KeywordIs(Current(), "OPTIONAL")) {
        return Error("nested OPTIONAL is not supported");
      }
      if (KeywordIs(Current(), "UNION")) {
        return Error("UNION is not supported inside OPTIONAL");
      }
      if (KeywordIs(Current(), "FILTER")) {
        ParsedFilter filter;
        SWAN_RETURN_NOT_OK(ParseFilter(&filter));
        group->filters.push_back(std::move(filter));
        continue;
      }
      SWAN_RETURN_NOT_OK(ParsePatternInto(group));
    }
    return Status::OK();
  }

  Status ParsePatternInto(ParsedGroup* group) {
    ParsedPattern pattern;
    SWAN_ASSIGN_OR_RETURN(pattern.subject, ParseTerm(/*literal_ok=*/false));
    SWAN_ASSIGN_OR_RETURN(pattern.property, ParseTerm(/*literal_ok=*/false));
    SWAN_ASSIGN_OR_RETURN(pattern.object, ParseTerm(/*literal_ok=*/true));
    group->patterns.push_back(std::move(pattern));
    if (Current().kind == TokenKind::kDot) Next();
    return Status::OK();
  }

  Status ParseFilter(ParsedFilter* filter) {
    Next();  // FILTER
    if (Current().kind != TokenKind::kLParen) {
      return Error("expected '(' after FILTER");
    }
    Next();
    if (Current().kind != TokenKind::kVariable) {
      return Error("expected ?variable in FILTER");
    }
    filter->var = Current().text;
    Next();
    if (KeywordIs(Current(), "IN")) {
      filter->op = "IN";
      Next();
      if (Current().kind != TokenKind::kLParen) {
        return Error("expected '(' after IN");
      }
      Next();
      for (;;) {
        ParsedTerm value;
        SWAN_ASSIGN_OR_RETURN(value, ParseOperand());
        filter->values.push_back(std::move(value));
        if (Current().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')' closing the IN list");
      }
      Next();
    } else if (Current().kind == TokenKind::kOp) {
      filter->op = Current().text;
      Next();
      ParsedTerm value;
      SWAN_ASSIGN_OR_RETURN(value, ParseOperand());
      filter->values.push_back(std::move(value));
    } else {
      return Error("expected a comparison operator or IN in FILTER");
    }
    if (Current().kind != TokenKind::kRParen) {
      return Error("expected ')' closing FILTER");
    }
    Next();
    return Status::OK();
  }

  Result<ParsedTerm> ParseOperand() {
    if (Current().kind == TokenKind::kNumber) {
      ParsedTerm term;
      term.kind = ParsedTerm::Kind::kNumber;
      term.text = Current().text;
      Next();
      return term;
    }
    return ParseTerm(/*literal_ok=*/true);
  }

  Result<ParsedTerm> ParseTerm(bool literal_ok) {
    ParsedTerm term;
    switch (Current().kind) {
      case TokenKind::kVariable:
        term.kind = ParsedTerm::Kind::kVariable;
        term.text = Current().text;
        break;
      case TokenKind::kIri:
        term.kind = ParsedTerm::Kind::kIri;
        term.text = Current().text;
        break;
      case TokenKind::kLiteral:
        if (!literal_ok) {
          return Error("literal not allowed in this position");
        }
        term.kind = ParsedTerm::Kind::kLiteral;
        term.text = Current().text;
        break;
      case TokenKind::kPrefixedName: {
        const std::string& name = Current().text;
        const size_t colon = name.find(':');
        const std::string prefix = name.substr(0, colon);
        auto it = prefixes_.find(prefix);
        if (it == prefixes_.end()) {
          return Error("undeclared prefix '" + prefix + ":'");
        }
        term.kind = ParsedTerm::Kind::kIri;
        term.text = "<" + it->second + name.substr(colon + 1) + ">";
        break;
      }
      default:
        return Error("expected a term, got '" + Current().text + "'");
    }
    Next();
    return term;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::unordered_map<std::string, std::string> prefixes_;
};

// --- Lowering helpers ------------------------------------------------------

// Numeric value of a term's text: bare digits, or a quoted literal whose
// lexical form (before any @lang / ^^ suffix) parses fully as a number.
std::optional<double> NumericValueOfText(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text.front() == '"') {
    const size_t close = text.find('"', 1);
    if (close == std::string_view::npos) return std::nullopt;
    text = text.substr(1, close - 1);
  }
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

plan::FilterOp FilterOpFromText(const std::string& op) {
  if (op == "<") return plan::FilterOp::kLt;
  if (op == "<=") return plan::FilterOp::kLe;
  if (op == ">") return plan::FilterOp::kGt;
  if (op == ">=") return plan::FilterOp::kGe;
  if (op == "=") return plan::FilterOp::kEq;
  if (op == "!=") return plan::FilterOp::kNe;
  return plan::FilterOp::kIn;
}

plan::FilterExpr CompileFilter(const ParsedFilter& parsed,
                               const rdf::Dataset& dataset) {
  plan::FilterExpr filter;
  filter.var = parsed.var;
  filter.op = FilterOpFromText(parsed.op);
  const bool relational = filter.op == plan::FilterOp::kLt ||
                          filter.op == plan::FilterOp::kLe ||
                          filter.op == plan::FilterOp::kGt ||
                          filter.op == plan::FilterOp::kGe;
  for (const ParsedTerm& term : parsed.values) {
    plan::FilterOperand value;
    if (term.kind == ParsedTerm::Kind::kVariable) {
      value.var = term.text;
    } else if (term.kind == ParsedTerm::Kind::kNumber) {
      value.number = NumericValueOfText(term.text);
    } else if (relational) {
      // A relational comparison is numeric-only: a term operand whose
      // lexical form is not a number can never compare true.
      const auto number = NumericValueOfText(term.text);
      if (number) {
        value.number = number;
      } else {
        filter.impossible = true;
      }
    } else {
      // Identity comparison: bind the term; a dictionary miss leaves the
      // operand empty — a valid term that equals nothing in the store.
      const auto id = dataset.dict().Find(term.text);
      if (id) value.id = *id;
    }
    filter.values.push_back(std::move(value));
  }
  return filter;
}

// Binds one parsed term; a constant absent from the dictionary sets
// *unsatisfiable (the scan can never match).
plan::Term BindTerm(const ParsedTerm& term, const rdf::Dataset& dataset,
                    bool* unsatisfiable) {
  if (term.kind == ParsedTerm::Kind::kVariable) {
    return plan::Term::Var(term.text);
  }
  const auto id = dataset.dict().Find(term.text);
  if (!id) {
    *unsatisfiable = true;
    return plan::Term::Const(0);
  }
  return plan::Term::Const(*id);
}

std::unique_ptr<plan::LogicalNode> BuildGroupNode(
    const ParsedGroup& group, const rdf::Dataset& dataset) {
  std::vector<std::unique_ptr<plan::LogicalNode>> scans;
  for (const ParsedPattern& p : group.patterns) {
    bool unsatisfiable = false;
    plan::BgpPattern pattern;
    pattern.subject = BindTerm(p.subject, dataset, &unsatisfiable);
    pattern.property = BindTerm(p.property, dataset, &unsatisfiable);
    pattern.object = BindTerm(p.object, dataset, &unsatisfiable);
    scans.push_back(plan::MakeScan(std::move(pattern), unsatisfiable));
  }
  std::unique_ptr<plan::LogicalNode> node = plan::MakeJoin(std::move(scans));
  for (const ParsedFilter& f : group.filters) {
    node = plan::MakeFilter(CompileFilter(f, dataset), std::move(node));
  }
  return node;
}

}  // namespace

Result<ParsedQuery> Parse(std::string_view query) {
  Lexer lexer(query);
  SWAN_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Run();
}

Result<plan::LogicalPlan> BuildLogicalPlan(const ParsedQuery& parsed,
                                           const rdf::Dataset& dataset) {
  plan::LogicalPlan logical;
  std::vector<std::unique_ptr<plan::LogicalNode>> branches;
  for (const ParsedBranch& branch : parsed.branches) {
    // Required join, then the left-joined optionals (group filters stay
    // inside their group), then the branch-level filters outermost.
    ParsedGroup required_patterns_only;
    required_patterns_only.patterns = branch.required.patterns;
    std::unique_ptr<plan::LogicalNode> node =
        BuildGroupNode(required_patterns_only, dataset);
    for (const ParsedGroup& optional : branch.optionals) {
      node = plan::MakeLeftJoin(std::move(node),
                                BuildGroupNode(optional, dataset));
    }
    for (const ParsedFilter& f : branch.required.filters) {
      node = plan::MakeFilter(CompileFilter(f, dataset), std::move(node));
    }
    branches.push_back(std::move(node));
  }
  if (branches.size() == 1) {
    logical.root = std::move(branches.front());
  } else {
    logical.root = plan::MakeUnion(std::move(branches));
  }

  // Every projected variable must occur in WHERE; checking it here makes
  // EXPLAIN reject what Execute rejects.
  const std::vector<std::string> where_vars = plan::CollectVars(*logical.root);
  for (const std::string& var : parsed.projection) {
    if (std::find(where_vars.begin(), where_vars.end(), var) ==
        where_vars.end()) {
      return Status::InvalidArgument("projected variable ?" + var +
                                     " does not occur in WHERE");
    }
  }

  // Solution modifiers, innermost first: Distinct, Project, Slice.
  if (parsed.distinct) {
    auto distinct = std::make_unique<plan::LogicalNode>();
    distinct->op = plan::LogicalOp::kDistinct;
    distinct->children.push_back(std::move(logical.root));
    logical.root = std::move(distinct);
  }
  if (!parsed.projection.empty()) {
    auto project = std::make_unique<plan::LogicalNode>();
    project->op = plan::LogicalOp::kProject;
    project->projection = parsed.projection;
    project->children.push_back(std::move(logical.root));
    logical.root = std::move(project);
  }
  if (parsed.limit || parsed.offset) {
    auto slice = std::make_unique<plan::LogicalNode>();
    slice->op = plan::LogicalOp::kSlice;
    slice->offset = parsed.offset;
    slice->limit = parsed.limit;
    slice->children.push_back(std::move(logical.root));
    logical.root = std::move(slice);
  }

  // Numeric filter support: decode a dictionary id to its numeric value.
  logical.numeric = [dict = &dataset.dict()](
                        uint64_t id) -> std::optional<double> {
    if (id >= dict->size()) return std::nullopt;
    return NumericValueOfText(dict->Lookup(id));
  };
  return logical;
}

std::string CanonicalQueryText(std::string_view query) {
  Result<std::vector<Token>> tokens = Lexer(query).Tokenize();
  if (!tokens.ok()) {
    // The query fails to parse, and failed queries are never cached.
    const size_t begin = query.find_first_not_of(" \t\r\n");
    if (begin == std::string_view::npos) return "";
    const size_t end = query.find_last_not_of(" \t\r\n");
    return std::string(query.substr(begin, end - begin + 1));
  }
  std::string out;
  out.reserve(query.size());
  size_t prev_end = 0;
  for (const Token& token : tokens.value()) {
    if (token.kind == TokenKind::kEnd) break;
    // One space where the source separated two tokens by whitespace or a
    // comment.
    if (!out.empty() && token.offset > prev_end) out += ' ';
    const std::string_view source =
        query.substr(token.offset, SourceLength(token));
    if (token.kind == TokenKind::kKeyword) {
      for (const char c : source) {
        out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    } else {
      out += source;
    }
    prev_end = token.offset + source.size();
  }
  return out;
}

Result<QueryOutput> Execute(const core::Backend& backend,
                            const rdf::Dataset& dataset,
                            std::string_view query,
                            const exec::ExecContext& ectx,
                            const plan::StoreStats* stats) {
  std::optional<ParsedQuery> parsed;
  {
    obs::Span parse_span(ectx.trace(), "sparql.parse");
    SWAN_ASSIGN_OR_RETURN(parsed, Parse(query));
  }

  // Lower to the logical algebra: constants bound, filters compiled,
  // unsatisfiable scans marked for constant folding, projection checked.
  plan::LogicalPlan logical;
  {
    obs::Span bind_span(ectx.trace(), "sparql.bind");
    SWAN_ASSIGN_OR_RETURN(logical, BuildLogicalPlan(*parsed, dataset));
    size_t pattern_count = 0;
    for (const ParsedBranch& branch : parsed->branches) {
      pattern_count += branch.required.patterns.size();
      for (const ParsedGroup& optional : branch.optionals) {
        pattern_count += optional.patterns.size();
      }
    }
    bind_span.set_rows_out(pattern_count);
  }

  plan::PlannerOptions options;
  if (stats != nullptr) {
    options.mode = plan::PlanMode::kCostBased;
    options.stats = stats;
    options.hints = backend.PlannerHints();
  }
  const plan::PhysicalPlan physical =
      core::PlanQuery(backend, logical, options, ectx);
  SWAN_ASSIGN_OR_RETURN(core::BgpResult bgp,
                        core::ExecutePlan(backend, physical, ectx));

  // The solution modifiers of the plan that ran, in order: projection,
  // DISTINCT, OFFSET, LIMIT. Binding columns are located by name against
  // the result's variable list (textual order, shared by every branch);
  // the identity projection moves the rows instead of copying them.
  obs::Span project_span(ectx.trace(), "sparql.project");
  project_span.set_rows_in(bgp.rows.size());
  QueryOutput output;
  output.vars =
      physical.projection.empty() ? physical.all_vars : physical.projection;
  output.plan_note = physical.mode_note;
  std::vector<std::vector<uint64_t>>& rows = output.rows;
  if (output.vars == bgp.vars) {
    rows = std::move(bgp.rows);
  } else {
    std::vector<size_t> column_of;
    for (const std::string& var : output.vars) {
      const auto it = std::find(bgp.vars.begin(), bgp.vars.end(), var);
      SWAN_CHECK_MSG(it != bgp.vars.end(), "projected variable lost by BGP");
      column_of.push_back(static_cast<size_t>(it - bgp.vars.begin()));
    }
    rows.reserve(bgp.rows.size());
    for (const auto& row : bgp.rows) {
      std::vector<uint64_t>& out_row = rows.emplace_back();
      out_row.reserve(column_of.size());
      for (size_t c : column_of) out_row.push_back(row[c]);
    }
  }
  if (physical.distinct) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
  if (physical.offset) {
    rows.erase(rows.begin(),
               rows.begin() + static_cast<ptrdiff_t>(
                                  std::min<uint64_t>(*physical.offset,
                                                     rows.size())));
  }
  if (physical.limit && rows.size() > *physical.limit) {
    rows.resize(*physical.limit);
  }
  project_span.set_rows_out(rows.size());
  return output;
}

std::string TermText(const rdf::Dataset& dataset, uint64_t id) {
  if (id == plan::kUnbound) return "";
  return std::string(dataset.dict().Lookup(id));
}

}  // namespace swan::sparql
