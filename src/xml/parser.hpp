// parser.hpp — recursive-descent XML parser producing a dom::Document.
//
// Supports the subset of XML that XMI 2.x and E-core files use:
// elements, attributes (single or double quoted), character data with
// entity references, CDATA sections, comments, processing instructions
// (skipped), and an optional XML declaration. DTDs are not supported;
// encountering one raises ParseError, which is the honest behaviour for a
// model-interchange tool (XMI never ships DTDs). Element nesting deeper
// than a fixed limit raises ParseError of kind Depth instead of
// overflowing the stack.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "xml/dom.hpp"

namespace uhcg::xml {

/// Thrown on malformed input. Carries 1-based line/column of the offence
/// and, when parsing a file, the path — so a caller catching it can build
/// a full source location without re-deriving context.
class ParseError : public std::runtime_error {
public:
    /// Syntax: malformed input. Depth: element nesting beyond the parser's
    /// limit (well-formed, but refused so the recursion stays bounded).
    enum class Kind { Syntax, Depth };

    ParseError(std::string message, std::size_t line, std::size_t column,
               Kind kind = Kind::Syntax);
    ParseError(std::string message, std::string file, std::size_t line,
               std::size_t column, Kind kind = Kind::Syntax);
    /// The parse failure without the position prefix.
    const std::string& detail() const { return detail_; }
    /// Path of the input file; empty for in-memory parses.
    const std::string& file() const { return file_; }
    std::size_t line() const { return line_; }
    std::size_t column() const { return column_; }
    Kind kind() const { return kind_; }

private:
    std::string detail_;
    std::string file_;
    std::size_t line_;
    std::size_t column_;
    Kind kind_;
};

/// Parses a complete XML document from memory.
Document parse(std::string_view input);

/// Parses the file at `path`. Throws std::runtime_error if unreadable and
/// ParseError if malformed.
Document parse_file(const std::string& path);

}  // namespace uhcg::xml
