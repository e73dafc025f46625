// Minimal --key=value command-line parsing for benchmark harnesses and
// examples. Keeps the bench binaries dependency-free and self-documenting.
// Every name a get_* call asks for is recorded; reject_unknown(),
// called once after the last flag read, exits 2 on any flag nothing read,
// so a misspelt flag fails instead of running the default configuration.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>

namespace sphinx {

class Flags {
 public:
  Flags(int argc, char** argv) {
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unrecognized argument: " << arg << "\n";
        std::exit(2);
      }
      arg = arg.substr(2);
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  uint64_t get_u64(const std::string& name, uint64_t def) const {
    auto it = find(name);
    if (it == values_.end()) return def;
    try {
      size_t pos = 0;
      const uint64_t v = std::stoull(it->second, &pos);
      if (pos == it->second.size()) return v;
    } catch (const std::exception&) {
    }
    die_bad_value(name, it->second, "an unsigned integer");
  }

  double get_double(const std::string& name, double def) const {
    auto it = find(name);
    if (it == values_.end()) return def;
    try {
      size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos == it->second.size()) return v;
    } catch (const std::exception&) {
    }
    die_bad_value(name, it->second, "a number");
  }

  bool get_bool(const std::string& name, bool def) const {
    auto it = find(name);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  std::string get_string(const std::string& name,
                         const std::string& def) const {
    auto it = find(name);
    return it == values_.end() ? def : it->second;
  }

  // Exits 2 naming every flag that no get_* call has read.
  void reject_unknown() const {
    bool unknown = false;
    for (const auto& [name, value] : values_) {
      if (read_.count(name) > 0) continue;
      std::cerr << program_ << ": unknown flag --" << name << "\n";
      unknown = true;
    }
    if (unknown) std::exit(2);
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& name) const {
    read_.insert(name);
    return values_.find(name);
  }

  [[noreturn]] static void die_bad_value(const std::string& name,
                                         const std::string& value,
                                         const char* expected) {
    std::cerr << "--" << name << ": expected " << expected << ", got '"
              << value << "'\n";
    std::exit(2);
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // names asked for so far
};

}  // namespace sphinx
