#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace qolsr::util {

/// One row of an enum's name table: a value and its canonical CLI/output
/// name. A `constexpr Named<E> kTable[]` is the single source for parsing
/// the value from a flag, the valid-values list in the error text, and the
/// name every sink prints — adding a value is one row.
template <typename E>
struct Named {
  E id;
  const char* name;
};

/// Name of `id`; the first row's name if the table lacks it.
template <typename E, std::size_t N>
constexpr const char* name_of(const Named<E> (&table)[N], E id) {
  for (const Named<E>& row : table)
    if (row.id == id) return row.name;
  return table[0].name;
}

/// Inverse of name_of; nullopt for a name the table lacks.
template <typename E, std::size_t N>
constexpr std::optional<E> parse_name(const Named<E> (&table)[N],
                                      std::string_view name) {
  for (const Named<E>& row : table)
    if (name == row.name) return row.id;
  return std::nullopt;
}

/// Pipe-separated list of the table's names ("a|b|c"), for error messages
/// and help text.
template <typename E, std::size_t N>
std::string names_of(const Named<E> (&table)[N]) {
  std::string out;
  for (const Named<E>& row : table) {
    if (!out.empty()) out += "|";
    out += row.name;
  }
  return out;
}

}  // namespace qolsr::util
