#include "ir/parser.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <unordered_map>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {
namespace {

enum class TokenKind { kIdent, kNumber, kPunct, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  std::int64_t number = 0;
  bool fits_int64 = true;  // false for a digit run past int64 (number unset)
  int line = 0;
  int column = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_space_and_comments();
    Token token;
    token.line = line_;
    token.column = column_;
    if (pos_ >= text_.size()) {
      token.kind = TokenKind::kEnd;
      return token;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        advance();
      }
      token.kind = TokenKind::kIdent;
      token.text = std::string(text_.substr(start, pos_ - start));
      return token;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
      token.kind = TokenKind::kNumber;
      token.text = std::string(text_.substr(start, pos_ - start));
      const char* end = token.text.data() + token.text.size();
      token.fits_int64 = std::from_chars(token.text.data(), end, token.number).ec == std::errc{};
      return token;
    }
    token.kind = TokenKind::kPunct;
    token.text = std::string(1, c);
    advance();
    return token;
  }

 private:
  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Operand as parsed; name references are resolved after the whole body is
/// read so that forward references at distance > 0 work.
struct PendingOperand {
  enum class Kind { kName, kImmediate, kIndex } kind = Kind::kImmediate;
  std::string name;
  int distance = 0;
  std::int64_t imm = 0;
  int index_offset = 0;
  int line = 0;
};

struct PendingOp {
  Op op;
  std::vector<PendingOperand> pending_args;
  int line = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { shift(); }

  [[nodiscard]] bool at_end() const { return current_.kind == TokenKind::kEnd; }

  Loop parse_one_loop() {
    expect_keyword("loop");
    Loop loop;
    loop.name = expect_ident("loop name");
    expect_punct("{");
    std::vector<PendingOp> body;
    while (!is_punct("}")) {
      parse_statement(loop, body);
    }
    expect_punct("}");
    resolve(loop, body);
    loop.validate();
    return loop;
  }

 private:
  [[noreturn]] void error(std::string_view message) const {
    fail(cat("parse error at line ", current_.line, ", column ", current_.column, ": ", message,
             current_.kind == TokenKind::kEnd ? " (at end of input)"
                                              : cat(" (near '", current_.text, "')")));
  }

  void shift() { current_ = lexer_.next(); }

  [[nodiscard]] bool is_punct(std::string_view p) const {
    return current_.kind == TokenKind::kPunct && current_.text == p;
  }

  [[nodiscard]] bool is_ident(std::string_view word) const {
    return current_.kind == TokenKind::kIdent && current_.text == word;
  }

  void expect_punct(std::string_view p) {
    if (!is_punct(p)) error(cat("expected '", p, "'"));
    shift();
  }

  void expect_keyword(std::string_view word) {
    if (!is_ident(word)) error(cat("expected '", word, "'"));
    shift();
  }

  std::string expect_ident(std::string_view what) {
    if (current_.kind != TokenKind::kIdent) error(cat("expected ", what));
    std::string text = current_.text;
    shift();
    return text;
  }

  std::int64_t expect_number(std::string_view what) {
    if (current_.kind != TokenKind::kNumber) error(cat("expected ", what));
    if (!current_.fits_int64) error(cat(what, " does not fit in 64 bits"));
    std::int64_t value = current_.number;
    shift();
    return value;
  }

  /// A number for an int field: a literal past INT_MAX is a parse error,
  /// not a silently wrapped value.
  int expect_int(std::string_view what) {
    if (current_.kind == TokenKind::kNumber &&
        (!current_.fits_int64 || current_.number > std::numeric_limits<int>::max())) {
      error(cat(what, " does not fit in an int"));
    }
    return static_cast<int>(expect_number(what));
  }

  /// Parses "i", "i+3", "i-2" after the caller saw '['; stops before ']'.
  int parse_index_offset() {
    expect_keyword("i");
    int offset = 0;
    if (is_punct("+") || is_punct("-")) {
      const bool negative = current_.text == "-";
      shift();
      offset = expect_int("index offset");
      if (negative) offset = -offset;
    }
    return offset;
  }

  PendingOperand parse_operand() {
    PendingOperand out;
    out.line = current_.line;
    if (current_.kind == TokenKind::kNumber) {
      out.kind = PendingOperand::Kind::kImmediate;
      out.imm = expect_number("immediate");
      return out;
    }
    if (is_punct("-")) {
      shift();
      out.kind = PendingOperand::Kind::kImmediate;
      out.imm = -expect_number("immediate");
      return out;
    }
    if (is_ident("i")) {
      shift();
      out.kind = PendingOperand::Kind::kIndex;
      if (is_punct("+") || is_punct("-")) {
        const bool negative = current_.text == "-";
        shift();
        int offset = expect_int("index offset");
        out.index_offset = negative ? -offset : offset;
      }
      return out;
    }
    out.kind = PendingOperand::Kind::kName;
    out.name = expect_ident("operand");
    if (is_punct("@")) {
      shift();
      out.distance = expect_int("distance");
    }
    return out;
  }

  void parse_statement(Loop& loop, std::vector<PendingOp>& body) {
    if (current_.kind != TokenKind::kIdent) error("expected a statement");

    if (is_ident("invariant") || is_ident("array")) {
      const bool invariant = current_.text == "invariant";
      shift();
      while (true) {
        const std::string name = expect_ident("name");
        if (invariant) {
          loop.intern_invariant(name);
        } else {
          loop.intern_array(name);
        }
        if (!is_punct(",")) break;
        shift();
      }
      expect_punct(";");
      return;
    }

    if (is_ident("trip")) {
      shift();
      loop.trip_hint = expect_int("trip count");
      expect_punct(";");
      return;
    }

    if (is_ident("stride")) {
      shift();
      loop.stride = expect_int("stride");
      expect_punct(";");
      return;
    }

    if (is_ident("store")) {
      shift();
      PendingOp pending;
      pending.line = current_.line;
      pending.op.opcode = Opcode::kStore;
      pending.op.array = loop.intern_array(expect_ident("array name"));
      expect_punct("[");
      pending.op.mem_offset = parse_index_offset();
      expect_punct("]");
      expect_punct(",");
      pending.pending_args.push_back(parse_operand());
      expect_punct(";");
      body.push_back(std::move(pending));
      return;
    }

    // IDENT "=" MNEMONIC ...
    PendingOp pending;
    pending.line = current_.line;
    pending.op.name = expect_ident("value name");
    if (pending.op.name == "i") error("'i' is the reserved loop index");
    expect_punct("=");
    const std::string mnemonic = expect_ident("opcode");
    Opcode opcode;
    if (!parse_opcode(mnemonic, opcode)) error(cat("unknown opcode '", mnemonic, "'"));
    if (opcode == Opcode::kStore) error("store does not define a value");
    pending.op.opcode = opcode;

    if (opcode == Opcode::kLoad) {
      pending.op.array = loop.intern_array(expect_ident("array name"));
      expect_punct("[");
      pending.op.mem_offset = parse_index_offset();
      expect_punct("]");
    } else {
      const int arity = operand_count(opcode);
      for (int a = 0; a < arity; ++a) {
        if (a != 0) expect_punct(",");
        pending.pending_args.push_back(parse_operand());
      }
    }
    expect_punct(";");
    body.push_back(std::move(pending));
  }

  /// Resolves name operands against value definitions and invariants.
  void resolve(Loop& loop, std::vector<PendingOp>& body) {
    std::unordered_map<std::string, int> defs;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i].op.defines_value()) {
        if (!defs.emplace(body[i].op.name, static_cast<int>(i)).second) {
          fail(cat("parse error at line ", body[i].line, ": duplicate value name '",
                   body[i].op.name, "'"));
        }
      }
    }
    for (auto& pending : body) {
      for (const PendingOperand& arg : pending.pending_args) {
        switch (arg.kind) {
          case PendingOperand::Kind::kImmediate:
            pending.op.args.push_back(Operand::immediate(arg.imm));
            break;
          case PendingOperand::Kind::kIndex:
            pending.op.args.push_back(Operand::index(arg.index_offset));
            break;
          case PendingOperand::Kind::kName: {
            auto def = defs.find(arg.name);
            if (def != defs.end()) {
              pending.op.args.push_back(Operand::value(def->second, arg.distance));
              break;
            }
            // Not a value: must be a declared invariant (distance illegal).
            int inv = -1;
            for (std::size_t k = 0; k < loop.invariants.size(); ++k) {
              if (loop.invariants[k] == arg.name) inv = static_cast<int>(k);
            }
            if (inv < 0) {
              fail(cat("parse error at line ", arg.line, ": use of undefined name '", arg.name,
                       "' (values must be defined in the body; invariants must be declared)"));
            }
            if (arg.distance != 0) {
              fail(cat("parse error at line ", arg.line, ": invariant '", arg.name,
                       "' cannot carry a distance"));
            }
            pending.op.args.push_back(Operand::invariant_ref(inv));
            break;
          }
        }
      }
      loop.add_op(std::move(pending.op));
    }
  }

  Lexer lexer_;
  Token current_;
};

}  // namespace

Loop parse_loop(std::string_view text) {
  Parser parser(text);
  Loop loop = parser.parse_one_loop();
  check(parser.at_end(), "parse error: trailing input after loop");
  return loop;
}

std::vector<Loop> parse_loops(std::string_view text) {
  Parser parser(text);
  std::vector<Loop> loops;
  while (!parser.at_end()) loops.push_back(parser.parse_one_loop());
  check(!loops.empty(), "parse error: no loops in input");
  return loops;
}

}  // namespace qvliw
