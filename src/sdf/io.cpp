#include "sdf/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "util/fault.h"
#include "util/status.h"

namespace sdf {
namespace {

/// One whitespace-delimited token with its 1-based column.
struct Token {
  std::string_view text;
  int column = 0;
};

/// A line's first tokens: the longest statement (`edge src snk prod cns
/// delay`) plus one to detect trailing tokens; the rest is never read.
using Tokens = std::array<Token, 7>;

std::size_t tokenize(std::string_view line, Tokens& tokens) {
  constexpr std::string_view kBlank = " \t\r";
  std::size_t n = 0;
  std::size_t start = line.find_first_not_of(kBlank);
  while (start != std::string_view::npos && n < tokens.size()) {
    const std::size_t end = line.find_first_of(kBlank, start);  // or npos
    tokens[n++] =
        Token{line.substr(start, end - start), static_cast<int>(start) + 1};
    start = line.find_first_not_of(kBlank, end);
  }
  return n;
}

[[noreturn]] void fail(int line, int column, const std::string& what,
                       std::string actor = {}, std::string edge = {}) {
  Diagnostic diag;
  diag.message = "parse_graph_text: line " + std::to_string(line) +
                 (column > 0 ? ", column " + std::to_string(column) : "") +
                 ": " + what;
  diag.actor = std::move(actor);
  diag.edge = std::move(edge);
  diag.loc = SourceLoc{line, column};
  throw ParseError(std::move(diag));
}

std::int64_t parse_int(const Token& tok, int line, const char* field) {
  std::int64_t value = 0;
  const char* end = tok.text.data() + tok.text.size();
  const auto [ptr, ec] = std::from_chars(tok.text.data(), end, value);
  if (ec == std::errc{} && ptr == end) return value;
  fail(line, tok.column,
       std::string(field) + " must be an integer, got '" +
           std::string(tok.text) + "'");
}

/// Appends " <value>" in the decimal form an ostream would print.
void append_field(std::string& out, std::int64_t value) {
  char buf[24] = {' '};
  out.append(buf, std::to_chars(buf + 1, buf + sizeof buf, value).ptr);
}

}  // namespace

Graph parse_graph_text(std::string_view text) {
  // Strip a UTF-8 byte-order mark (Windows editors prepend one) before
  // tokenizing, so line 1 column 1 is the first real character and the
  // leading keyword is not reported as unknown.
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  Graph g;
  // Keys view into `text`; one probe per name keeps the parse linear.
  std::unordered_map<std::string_view, ActorId> ids;
  int line_no = 0;
  for (std::size_t pos = 0, eol = 0; pos < text.size(); pos = eol + 1) {
    ++line_no;
    eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    Tokens tokens;
    const std::size_t n = tokenize(line.substr(0, line.find('#')), tokens);
    if (n == 0) continue;  // blank/comment line
    if (fault::enabled() && fault::should_fail("parse_oom")) {
      Diagnostic diag;
      diag.message = "parse_graph_text: line " + std::to_string(line_no) +
                     ": injected allocation failure";
      diag.loc = SourceLoc{line_no, tokens[0].column};
      throw ResourceExhaustedError(std::move(diag));
    }

    const std::string_view keyword = tokens[0].text;
    if (keyword == "graph") {
      if (n < 2) fail(line_no, tokens[0].column, "graph needs a name");
      g.set_name(std::string(tokens[1].text));
    } else if (keyword == "actor") {
      if (n < 2) fail(line_no, tokens[0].column, "actor needs a name");
      std::string name(tokens[1].text);
      const auto id = static_cast<ActorId>(g.num_actors());
      if (!ids.try_emplace(tokens[1].text, id).second) {
        fail(line_no, tokens[1].column, "duplicate actor '" + name + "'",
             name);
      }
      g.add_actor(std::move(name));
    } else if (keyword == "edge") {
      if (n < 5) {
        fail(line_no, tokens[0].column,
             "edge needs: src snk prod cns [delay]");
      }
      if (n > 6) fail(line_no, tokens[6].column, "edge has trailing tokens");
      const std::int64_t prod = parse_int(tokens[3], line_no, "prod");
      const std::int64_t cns = parse_int(tokens[4], line_no, "cns");
      const std::int64_t delay =
          n > 5 ? parse_int(tokens[5], line_no, "delay") : 0;
      const auto endpoint = [&](const Token& tok) {
        const auto it = ids.find(tok.text);
        if (it == ids.end()) {
          const std::string name(tok.text);
          fail(line_no, tok.column, "unknown actor '" + name + "'", name);
        }
        return it->second;
      };
      const ActorId s = endpoint(tokens[1]);
      const ActorId t = endpoint(tokens[2]);
      try {
        g.add_edge(s, t, prod, cns, delay);
      } catch (const std::invalid_argument& e) {
        fail(line_no, tokens[3].column, e.what(), {},
             std::string(tokens[1].text).append("->").append(tokens[2].text));
      }
    } else {
      fail(line_no, tokens[0].column,
           "unknown keyword '" + std::string(keyword) + "'");
    }
  }
  return g;
}

std::string write_graph_text(const Graph& g) {
  std::string out;
  out.reserve(64 + 16 * g.num_actors() + 48 * g.num_edges());
  const auto put = [&out](const auto&... parts) { ((out += parts), ...); };
  put("graph ", g.name().empty() ? "unnamed" : g.name(), '\n');
  for (const Actor& a : g.actors()) put("actor ", a.name, '\n');
  for (const Edge& e : g.edges()) {
    put("edge ", g.actor(e.src).name, ' ', g.actor(e.snk).name);
    append_field(out, e.prod);
    append_field(out, e.cns);
    if (e.delay != 0) append_field(out, e.delay);
    out += '\n';
  }
  return out;
}

Graph load_graph(const std::string& path) {
  if (fault::enabled() && fault::should_fail("io_open")) {
    throw IoError("load_graph: injected I/O failure opening " + path);
  }
  std::ifstream in(path);
  if (!in) throw IoError("load_graph: cannot open " + path);
  return parse_graph_text(std::string(std::istreambuf_iterator<char>(in), {}));
}

void save_graph(const Graph& g, const std::string& path) {
  if (fault::enabled() && fault::should_fail("io_open")) {
    throw IoError("save_graph: injected I/O failure opening " + path);
  }
  std::ofstream out(path);
  if (!out) throw IoError("save_graph: cannot open " + path);
  out << write_graph_text(g);
  if (!out) throw IoError("save_graph: write failed " + path);
}

}  // namespace sdf
