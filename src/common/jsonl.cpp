#include "common/jsonl.hpp"

#include <algorithm>

#include "common/parse.hpp"

namespace nox::jsonl {
namespace {

/** Position just past `"key":` and any spaces, or npos. */
std::size_t
valuePos(const std::string &line, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t p = line.find(needle);
    return p == std::string::npos
               ? p
               : line.find_first_not_of(' ', p + needle.size());
}

/** Parse all of the unquoted scalar at @p p (it ends at the next
 *  `,`, `}` or `]`, trailing spaces excluded). */
template <class T>
bool
parseAt(const std::string &line, std::size_t p, T &out)
{
    if (p == std::string::npos)
        return false;
    std::size_t end = std::min(line.find_first_of(",}]", p), line.size());
    while (end > p && line[end - 1] == ' ')
        --end;
    return parseWhole(std::string_view(line).substr(p, end - p), out);
}

/** Read the string whose opening quote is at @p p, unescaping, and
 *  leave @p p just past its closing quote. */
bool
readString(const std::string &line, std::size_t &p, std::string &out)
{
    if (p >= line.size() || line[p] != '"')
        return false;
    std::string s;
    for (++p; p < line.size() && line[p] != '"'; ++p) {
        if (line[p] == '\\' && p + 1 < line.size())
            ++p;
        s.push_back(line[p]);
    }
    if (p++ >= line.size())
        return false; // unterminated
    out = std::move(s);
    return true;
}

} // namespace

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

bool
find(const std::string &line, const char *key, std::uint64_t &out)
{
    return parseAt(line, valuePos(line, key), out);
}

bool
find(const std::string &line, const char *key, std::int64_t &out)
{
    return parseAt(line, valuePos(line, key), out);
}

bool
find(const std::string &line, const char *key, double &out)
{
    return parseAt(line, valuePos(line, key), out);
}

bool
find(const std::string &line, const char *key, std::string &out)
{
    std::size_t p = valuePos(line, key);
    return readString(line, p, out);
}

bool
find(const std::string &line, const char *key,
     std::vector<std::string> &out)
{
    std::size_t p = valuePos(line, key);
    if (p >= line.size() || line[p] != '[')
        return false;
    std::vector<std::string> items;
    for (++p; p < line.size() && line[p] != ']';) {
        if (line[p] == ',' || line[p] == ' ') {
            ++p;
        } else if (line[p] == '"') {
            items.emplace_back();
            if (!readString(line, p, items.back()))
                return false;
        } else {
            const std::size_t end = line.find_first_of(",] ", p);
            items.push_back(line.substr(p, end - p));
            p = end;
        }
    }
    if (p >= line.size())
        return false; // unterminated
    out = std::move(items);
    return true;
}

} // namespace nox::jsonl
