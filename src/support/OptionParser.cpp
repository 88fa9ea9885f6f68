//===- support/OptionParser.cpp - Tiny key=value CLI parsing -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/OptionParser.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

using namespace pcb;

OptionParser::OptionParser(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Start = 0;
    while (Start < Arg.size() && Arg[Start] == '-')
      ++Start;
    size_t Eq = Arg.find('=', Start);
    if (Eq == std::string::npos || Eq == Start) {
      Positional.push_back(Arg);
      continue;
    }
    Options[Arg.substr(Start, Eq - Start)] = Arg.substr(Eq + 1);
  }
}

std::string OptionParser::getString(const std::string &Name,
                                    const std::string &Default) const {
  auto It = Options.find(Name);
  return It == Options.end() ? Default : It->second;
}

bool OptionParser::parseWordCount(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  size_t Pos = 0;
  uint64_t Value = 0;
  while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(
                                  Text[Pos]))) {
    uint64_t Digit = uint64_t(Text[Pos] - '0');
    // Out-of-range counts are malformed, not silently wrapped.
    if (Value > (UINT64_MAX - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
    ++Pos;
  }
  if (Pos == 0)
    return false;
  uint64_t Scale = 1;
  if (Pos < Text.size()) {
    switch (std::toupper(static_cast<unsigned char>(Text[Pos]))) {
    case 'K':
      Scale = 1024;
      break;
    case 'M':
      Scale = 1024 * 1024;
      break;
    case 'G':
      Scale = uint64_t(1024) * 1024 * 1024;
      break;
    default:
      return false;
    }
    ++Pos;
    if (Pos != Text.size())
      return false;
  }
  if (Scale != 1 && Value > UINT64_MAX / Scale)
    return false;
  Out = Value * Scale;
  return true;
}

uint64_t OptionParser::getUInt(const std::string &Name,
                               uint64_t Default) const {
  auto It = Options.find(Name);
  if (It == Options.end())
    return Default;
  uint64_t Out;
  if (!parseWordCount(It->second, Out))
    throw std::invalid_argument("invalid number '" + It->second + "' in " +
                                Name + "=");
  return Out;
}

bool OptionParser::parseNumber(const std::string &Text, double &Out) {
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (Text.empty() || !End || *End != '\0')
    return false;
  Out = Value;
  return true;
}

double OptionParser::getDouble(const std::string &Name, double Default) const {
  auto It = Options.find(Name);
  if (It == Options.end())
    return Default;
  double Value;
  if (!parseNumber(It->second, Value))
    throw std::invalid_argument("invalid number '" + It->second + "' in " +
                                Name + "=");
  return Value;
}

bool OptionParser::getBool(const std::string &Name, bool Default) const {
  auto It = Options.find(Name);
  if (It == Options.end())
    return Default;
  const std::string &V = It->second;
  return V == "1" || V == "true" || V == "yes";
}
