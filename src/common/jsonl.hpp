/**
 * @file
 * Field reader for the one-line JSON objects of the JSONL exports
 * (ledger, flight dump, profile), and the matching string escape.
 *
 * Not a JSON parser: a field is found by searching for `"key":`
 * (spaces after the colon are skipped), so a key must not also occur
 * inside another field's string value — true of every export the
 * simulator writes. Numbers must parse completely (parseWhole): `12x`
 * is not 12.
 */

#ifndef NOX_COMMON_JSONL_HPP
#define NOX_COMMON_JSONL_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace nox::jsonl {

/** Escape quotes and backslashes for a JSON string value. */
std::string escape(const std::string &s);

/** Read field @p key of @p line into @p out. @return false when the
 *  field is absent or its value is not entirely of the asked type;
 *  @p out is then left unchanged. */
bool find(const std::string &line, const char *key, std::uint64_t &out);
bool find(const std::string &line, const char *key, std::int64_t &out);
bool find(const std::string &line, const char *key, double &out);
bool find(const std::string &line, const char *key, std::string &out);

/** An array field: each element's text (strings unquoted, numbers as
 *  written). */
bool find(const std::string &line, const char *key,
          std::vector<std::string> &out);

} // namespace nox::jsonl

#endif // NOX_COMMON_JSONL_HPP
