//===- support/OptionParser.h - Tiny key=value CLI parsing ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal option parser for the example and bench executables. Options
/// take the form `name=value` or `--name=value`; anything else is kept as a
/// positional argument. Numeric getters accept suffixes K/M/G (powers of
/// 1024) so parameters can be written the way the paper writes them
/// ("M=256M", "n=1M"), and reject a value that does not parse.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_OPTIONPARSER_H
#define PCBOUND_SUPPORT_OPTIONPARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcb {

/// Parsed command line: `name=value` pairs plus positional arguments.
class OptionParser {
public:
  OptionParser(int Argc, const char *const *Argv);

  /// Returns true if \p Name was supplied.
  bool has(const std::string &Name) const { return Options.count(Name) != 0; }

  /// String option, or \p Default when absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Unsigned option with optional K/M/G suffix, or \p Default when
  /// absent. Throws std::invalid_argument naming the word when the value
  /// does not parse.
  uint64_t getUInt(const std::string &Name, uint64_t Default) const;

  /// Double option, or \p Default when absent. Throws
  /// std::invalid_argument naming the word when the value does not parse.
  double getDouble(const std::string &Name, double Default) const;

  /// Boolean option: "1", "true", "yes" are true.
  bool getBool(const std::string &Name, bool Default) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Parses "256M" style word counts; returns false on malformed input.
  static bool parseWordCount(const std::string &Text, uint64_t &Out);

  /// Parses a whole word as a double (what getDouble accepts); returns
  /// false on malformed input.
  static bool parseNumber(const std::string &Text, double &Out);

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

} // namespace pcb

#endif // PCBOUND_SUPPORT_OPTIONPARSER_H
