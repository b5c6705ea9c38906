#include "xml/parser.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"

namespace uhcg::xml {
namespace {

/// Deepest element nesting the parser accepts. Parsing recurses once per
/// level, so the limit bounds stack use. The XMI writer and synth-corpus
/// emit at most five levels, so real models sit far below it.
constexpr std::size_t kMaxNestingDepth = 1000;

bool is_name_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool is_name_char(char c) {
    return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
}

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
public:
    explicit Cursor(std::string_view input) : input_(input) {}

    bool eof() const { return pos_ >= input_.size(); }
    char peek() const { return input_[pos_]; }
    bool starts_with(std::string_view s) const {
        return input_.substr(pos_, s.size()) == s;
    }

    char advance() {
        char c = input_[pos_++];
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void advance_by(std::size_t n) {
        for (std::size_t i = 0; i < n && !eof(); ++i) advance();
    }

    void skip_whitespace() {
        while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) advance();
    }

    [[noreturn]] void fail(std::string message,
                           ParseError::Kind kind = ParseError::Kind::Syntax) const {
        throw ParseError(std::move(message), line_, column_, kind);
    }

    void expect(char c) {
        if (eof() || peek() != c)
            fail(std::string("expected '") + c + "'");
        advance();
    }

    void expect(std::string_view s) {
        if (!starts_with(s)) fail("expected '" + std::string(s) + "'");
        advance_by(s.size());
    }

    std::size_t line() const { return line_; }
    std::size_t column() const { return column_; }

private:
    std::string_view input_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t column_ = 1;
};

class Parser {
public:
    explicit Parser(std::string_view input) : cur_(input) {}

    Document run() {
        Document doc;
        parse_prolog(doc);
        skip_misc();
        if (cur_.eof() || cur_.peek() != '<')
            cur_.fail("expected root element");
        doc.set_root(parse_element());
        skip_misc();
        if (!cur_.eof()) cur_.fail("content after root element");
        // One batched add per document, not one per element.
        static obs::Counter& nodes = obs::counter("xml.nodes_parsed");
        nodes.add(elements_);
        return doc;
    }

private:
    void parse_prolog(Document& doc) {
        cur_.skip_whitespace();
        if (!cur_.starts_with("<?xml")) return;
        cur_.advance_by(5);
        // Scan pseudo-attributes until "?>".
        while (!cur_.eof() && !cur_.starts_with("?>")) {
            cur_.skip_whitespace();
            if (cur_.starts_with("?>")) break;
            std::string name = parse_name();
            cur_.skip_whitespace();
            cur_.expect('=');
            cur_.skip_whitespace();
            std::string value = parse_quoted();
            if (name == "version") doc.version = value;
            if (name == "encoding") doc.encoding = value;
        }
        cur_.expect("?>");
    }

    /// Skips comments, PIs and whitespace between top-level constructs.
    void skip_misc() {
        for (;;) {
            cur_.skip_whitespace();
            if (cur_.starts_with("<!--")) {
                skip_comment();
            } else if (cur_.starts_with("<?")) {
                skip_pi();
            } else if (cur_.starts_with("<!DOCTYPE")) {
                cur_.fail("DTDs are not supported");
            } else {
                return;
            }
        }
    }

    void skip_comment() {
        cur_.advance_by(4);
        while (!cur_.eof() && !cur_.starts_with("-->")) cur_.advance();
        if (cur_.eof()) cur_.fail("unterminated comment");
        cur_.advance_by(3);
    }

    std::string read_comment() {
        cur_.advance_by(4);
        std::string text;
        while (!cur_.eof() && !cur_.starts_with("-->")) text += cur_.advance();
        if (cur_.eof()) cur_.fail("unterminated comment");
        cur_.advance_by(3);
        return text;
    }

    void skip_pi() {
        cur_.advance_by(2);
        while (!cur_.eof() && !cur_.starts_with("?>")) cur_.advance();
        if (cur_.eof()) cur_.fail("unterminated processing instruction");
        cur_.advance_by(2);
    }

    std::string parse_name() {
        if (cur_.eof() || !is_name_start(cur_.peek())) cur_.fail("expected name");
        std::string name;
        while (!cur_.eof() && is_name_char(cur_.peek())) name += cur_.advance();
        return name;
    }

    std::string parse_quoted() {
        if (cur_.eof() || (cur_.peek() != '"' && cur_.peek() != '\''))
            cur_.fail("expected quoted value");
        char quote = cur_.advance();
        std::string out;
        while (!cur_.eof() && cur_.peek() != quote) {
            if (cur_.peek() == '&') {
                out += parse_entity();
            } else if (cur_.peek() == '<') {
                cur_.fail("'<' in attribute value");
            } else {
                out += cur_.advance();
            }
        }
        if (cur_.eof()) cur_.fail("unterminated attribute value");
        cur_.advance();  // closing quote
        return out;
    }

    std::string parse_entity() {
        cur_.expect('&');
        std::string name;
        while (!cur_.eof() && cur_.peek() != ';') {
            name += cur_.advance();
            if (name.size() > 10) cur_.fail("malformed entity reference");
        }
        if (cur_.eof()) cur_.fail("unterminated entity reference");
        cur_.advance();  // ';'
        if (name == "lt") return "<";
        if (name == "gt") return ">";
        if (name == "amp") return "&";
        if (name == "apos") return "'";
        if (name == "quot") return "\"";
        if (!name.empty() && name[0] == '#') {
            long code = 0;
            try {
                code = (name.size() > 1 && (name[1] == 'x' || name[1] == 'X'))
                           ? std::stol(name.substr(2), nullptr, 16)
                           : std::stol(name.substr(1), nullptr, 10);
            } catch (const std::exception&) {
                cur_.fail("malformed character reference &" + name + ";");
            }
            return encode_utf8(code);
        }
        cur_.fail("unknown entity &" + name + ";");
    }

    static std::string encode_utf8(long code) {
        std::string out;
        auto c = static_cast<unsigned long>(code);
        if (c < 0x80) {
            out += static_cast<char>(c);
        } else if (c < 0x800) {
            out += static_cast<char>(0xC0 | (c >> 6));
            out += static_cast<char>(0x80 | (c & 0x3F));
        } else if (c < 0x10000) {
            out += static_cast<char>(0xE0 | (c >> 12));
            out += static_cast<char>(0x80 | ((c >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (c & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (c >> 18));
            out += static_cast<char>(0x80 | ((c >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((c >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (c & 0x3F));
        }
        return out;
    }

    std::unique_ptr<Element> parse_element() {
        ++elements_;
        if (++depth_ > kMaxNestingDepth)
            cur_.fail("element nesting exceeds depth limit " +
                          std::to_string(kMaxNestingDepth),
                      ParseError::Kind::Depth);
        std::size_t line = cur_.line(), column = cur_.column();
        cur_.expect('<');
        auto elem = std::make_unique<Element>(parse_name());
        elem->set_source_location(line, column);
        // Attributes.
        for (;;) {
            cur_.skip_whitespace();
            if (cur_.eof()) cur_.fail("unterminated start tag");
            if (cur_.peek() == '>' || cur_.starts_with("/>")) break;
            std::string name = parse_name();
            cur_.skip_whitespace();
            cur_.expect('=');
            cur_.skip_whitespace();
            std::string value = parse_quoted();
            if (elem->has_attribute(name))
                cur_.fail("duplicate attribute '" + name + "'");
            elem->set_attribute(name, value);
        }
        if (cur_.starts_with("/>")) {
            cur_.advance_by(2);
        } else {
            cur_.expect('>');
            parse_content(*elem);
            // parse_content consumed "</"; now the matching close tag name.
            std::string close = parse_name();
            if (close != elem->name())
                cur_.fail("mismatched close tag </" + close + "> for <" +
                          elem->name() + ">");
            cur_.skip_whitespace();
            cur_.expect('>');
        }
        --depth_;
        return elem;
    }

    /// Parses children until the start of this element's close tag, whose
    /// leading "</" it consumes.
    void parse_content(Element& parent) {
        std::string text;
        auto flush_text = [&] {
            // Whitespace-only runs between elements are formatting noise in
            // model files; keep only meaningful character data.
            if (text.find_first_not_of(" \t\r\n") != std::string::npos)
                parent.add_text(text);
            text.clear();
        };
        for (;;) {
            if (cur_.eof()) cur_.fail("unterminated element <" + parent.name() + ">");
            if (cur_.starts_with("</")) {
                flush_text();
                cur_.advance_by(2);
                return;
            }
            if (cur_.starts_with("<!--")) {
                flush_text();
                parent.add_comment(read_comment());
            } else if (cur_.starts_with("<![CDATA[")) {
                cur_.advance_by(9);
                while (!cur_.eof() && !cur_.starts_with("]]>")) text += cur_.advance();
                if (cur_.eof()) cur_.fail("unterminated CDATA section");
                cur_.advance_by(3);
            } else if (cur_.starts_with("<?")) {
                flush_text();
                skip_pi();
            } else if (cur_.peek() == '<') {
                flush_text();
                parent.add_child(parse_element());
            } else if (cur_.peek() == '&') {
                text += parse_entity();
            } else {
                text += cur_.advance();
            }
        }
    }

    Cursor cur_;
    std::size_t elements_ = 0;
    std::size_t depth_ = 0;  ///< currently open elements
};

}  // namespace

ParseError::ParseError(std::string message, std::size_t line, std::size_t column,
                       Kind kind)
    : std::runtime_error("XML parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      detail_(std::move(message)),
      line_(line),
      column_(column),
      kind_(kind) {}

ParseError::ParseError(std::string message, std::string file, std::size_t line,
                       std::size_t column, Kind kind)
    : std::runtime_error("XML parse error at " + file + ":" +
                         std::to_string(line) + ":" + std::to_string(column) +
                         ": " + message),
      detail_(std::move(message)),
      file_(std::move(file)),
      line_(line),
      column_(column),
      kind_(kind) {}

Document parse(std::string_view input) {
    obs::ObsSpan span("xml.parse");
    return Parser(input).run();
}

Document parse_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open XML file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parse(buf.str());
    } catch (const ParseError& e) {
        // Re-raise with the path attached; the bare in-memory error would
        // otherwise lose which file of a multi-model batch was at fault.
        throw ParseError(e.detail(), path, e.line(), e.column(), e.kind());
    }
}

}  // namespace uhcg::xml
