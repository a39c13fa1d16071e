#include "lang/lexer.h"

#include <cctype>

#include "common/flags.h"
#include "common/logging.h"

namespace square {

std::vector<Token>
lex(std::string_view src)
{
    std::vector<Token> out;
    size_t i = 0;
    int line = 1, col = 1;

    auto advance = [&](size_t n = 1) {
        for (size_t k = 0; k < n && i < src.size(); ++k, ++i) {
            if (src[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
    };

    auto push = [&](TokKind kind, std::string text, int64_t value = 0) {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.value = value;
        t.line = line;
        t.col = col;
        out.push_back(std::move(t));
    };

    while (i < src.size()) {
        char c = src[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            advance();
            continue;
        }
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            while (i < src.size() && src[i] != '\n')
                advance();
            continue;
        }
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            int start_line = line;
            advance(2);
            while (i + 1 < src.size() &&
                   !(src[i] == '*' && src[i + 1] == '/')) {
                advance();
            }
            if (i + 1 >= src.size())
                fatal("unterminated block comment at line ", start_line);
            advance(2);
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = i;
            while (i < src.size() &&
                   (std::isalnum(static_cast<unsigned char>(src[i])) ||
                    src[i] == '_')) {
                ++i;
                ++col;
            }
            push(TokKind::Ident, std::string(src.substr(start, i - start)));
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = i;
            while (i < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[i]))) {
                ++i;
                ++col;
            }
            const std::string_view digits = src.substr(start, i - start);
            int64_t value = 0;
            if (!parseInt(digits, 0, INT64_MAX, value))
                fatal("integer literal overflow at line ", line);
            push(TokKind::Int, std::string(digits), value);
            continue;
        }
        TokKind kind;
        switch (c) {
          case '(': kind = TokKind::LParen; break;
          case ')': kind = TokKind::RParen; break;
          case '{': kind = TokKind::LBrace; break;
          case '}': kind = TokKind::RBrace; break;
          case '[': kind = TokKind::LBracket; break;
          case ']': kind = TokKind::RBracket; break;
          case ',': kind = TokKind::Comma; break;
          case ';': kind = TokKind::Semi; break;
          default:
            fatal("unexpected character '", c, "' at line ", line,
                  ", col ", col);
        }
        push(kind, std::string(1, c));
        advance();
    }
    push(TokKind::End, "<eof>");
    return out;
}

} // namespace square
