// Shared `--json <path>` / `--trace <path>` handling for the bench
// binaries. Every bench constructs a JsonOut, fills its record with the
// numbers it prints, and ends main with `return jout.finish(status);` --
// so a run with `--json out.json` leaves a diffable BENCH_*.json artifact
// next to the human-readable table output, and exits 1 when it cannot.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/schema.h"
#include "src/obs/json.h"

namespace smd::benchio {

/// Value of `--<name> <value>` in argv, or "" when absent.
inline std::string flag_value(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return "";
}

/// True when the exact token `flag` (e.g. "--verbose") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

/// Uniform CLI argument-error exit shared by the smd* drivers: one
/// `tool: message` line plus a one-line usage hint, exit status 2 (the
/// same status a missing mode already produces).
[[noreturn]] inline void usage_error(const char* tool, const std::string& msg,
                                     const char* usage) {
  std::fprintf(stderr, "%s: %s\nusage: %s\n", tool, msg.c_str(), usage);
  std::exit(2);
}

/// Strict argv validation for the smd* drivers: every `--token` must be a
/// known value-taking flag (its value, the next argv entry, is skipped --
/// and must exist) or a known boolean flag; anything else exits 2 with
/// the usage hint. Tokens not starting with "--" are positionals (e.g.
/// the second baseline of `smdprof --diff A B`); they are returned, in
/// order, for the tool to use or reject.
inline std::vector<std::string> check_flags(
    int argc, char** argv, const char* tool, const char* usage,
    std::initializer_list<const char*> value_flags,
    std::initializer_list<const char*> bool_flags) {
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
      continue;
    }
    bool known = false;
    for (const char* f : bool_flags) {
      if (arg == f) {
        known = true;
        break;
      }
    }
    if (!known) {
      for (const char* f : value_flags) {
        if (arg == f) {
          if (i + 1 >= argc) {
            usage_error(tool, "flag '" + arg + "' expects a value", usage);
          }
          ++i;  // skip the value
          known = true;
          break;
        }
      }
    }
    if (!known) usage_error(tool, "unknown flag '" + arg + "'", usage);
  }
  return positionals;
}

/// `--<name> <value>` with a fallback, parsed by `parse(text, &pos)`; a
/// value that fails to parse, has trailing garbage or is rejected by
/// `parse` (which throws) exits 2 through usage_error instead of throwing
/// out of main.
template <class T, class Parse>
T flag_or_exit(int argc, char** argv, const char* tool,
               const std::string& name, T fallback, const char* usage,
               const char* kind, Parse parse) {
  const std::string v = flag_value(argc, argv, name);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const T parsed = parse(v, &pos);
    if (pos == v.size()) return parsed;
  } catch (const std::exception&) {
  }
  usage_error(tool, "--" + name + ": bad " + kind + " '" + v + "'", usage);
}

/// `--<name> <int>`; out-of-range values are malformed ones.
inline int int_flag_or_exit(int argc, char** argv, const char* tool,
                            const std::string& name, int fallback,
                            const char* usage) {
  return flag_or_exit(argc, argv, tool, name, fallback, usage, "integer",
                      [](const std::string& v, std::size_t* pos) {
                        return std::stoi(v, pos);
                      });
}

/// `--<name> <uint64>` (dataset seeds); a negative value is rejected, not
/// wrapped.
inline std::uint64_t u64_flag_or_exit(int argc, char** argv, const char* tool,
                                      const std::string& name,
                                      std::uint64_t fallback,
                                      const char* usage) {
  return flag_or_exit(argc, argv, tool, name, fallback, usage, "integer",
                      [](const std::string& v, std::size_t* pos) {
                        if (v.find('-') != std::string::npos) {
                          throw std::invalid_argument(v);
                        }
                        return std::uint64_t{std::stoull(v, pos)};
                      });
}

/// `--<name> <double>`; non-finite values (`nan`, `inf`) are rejected like
/// malformed ones.
inline double double_flag_or_exit(int argc, char** argv, const char* tool,
                                  const std::string& name, double fallback,
                                  const char* usage) {
  return flag_or_exit(argc, argv, tool, name, fallback, usage, "number",
                      [](const std::string& v, std::size_t* pos) {
                        const double d = std::stod(v, pos);
                        if (!std::isfinite(d)) throw std::invalid_argument(v);
                        return d;
                      });
}

/// Longest list a value-list flag may expand to, so a range such as
/// `1:1e12:1` fails fast instead of allocating until memory runs out.
inline constexpr std::size_t kMaxValueListLen = 4096;

/// Parse "a,b,c" and "lo:hi:step" (inclusive ends) value lists -- the same
/// syntax smdtune sweep axes use, so humans and the tuner drive the bench
/// binaries uniformly. Throws std::invalid_argument on malformed input,
/// non-finite values and lists longer than kMaxValueListLen.
inline std::vector<double> parse_value_list(const std::string& spec) {
  std::vector<double> out;
  const auto number = [](const std::string& token) {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size() || !std::isfinite(v)) {
      throw std::invalid_argument("bad number '" + token + "'");
    }
    return v;
  };
  const auto push = [&out, &spec](double v) {
    if (out.size() == kMaxValueListLen) {
      throw std::invalid_argument("'" + spec + "' expands past " +
                                  std::to_string(kMaxValueListLen) +
                                  " values");
    }
    out.push_back(v);
  };
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    if (token.empty()) throw std::invalid_argument("empty value in '" + spec + "'");
    const std::size_t c1 = token.find(':');
    if (c1 == std::string::npos) {
      push(number(token));
    } else {
      const std::size_t c2 = token.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        throw std::invalid_argument("bad range '" + token + "' (want lo:hi:step)");
      }
      const double lo = number(token.substr(0, c1));
      const double hi = number(token.substr(c1 + 1, c2 - c1 - 1));
      const double step = number(token.substr(c2 + 1));
      if (step <= 0.0 || hi < lo) {
        throw std::invalid_argument("empty range '" + token + "'");
      }
      for (double v = lo; v <= hi + 1e-9 * step; v += step) push(v);
    }
    start = end + 1;
  }
  return out;
}

/// parse_value_list, rounded to int; values outside int range throw
/// std::invalid_argument.
inline std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  for (const double v : parse_value_list(spec)) {
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("value out of int range in '" + spec + "'");
    }
    out.push_back(static_cast<int>(v + (v >= 0 ? 0.5 : -0.5)));
  }
  return out;
}

/// `--<name> a,b,c` / `lo:hi:step` int list with a fallback; a malformed
/// list exits 2 with the usage hint (the PR 6 `--nodes` behavior, now
/// uniform across the drivers).
inline std::vector<int> int_list_flag_or_exit(int argc, char** argv,
                                              const char* tool,
                                              const std::string& name,
                                              std::vector<int> fallback,
                                              const char* usage) {
  const std::string v = flag_value(argc, argv, name);
  if (v.empty()) return fallback;
  try {
    return parse_int_list(v);
  } catch (const std::exception& e) {
    usage_error(tool,
                "--" + name + ": bad value list '" + v + "' (" + e.what() + ")",
                usage);
  }
}

class JsonOut {
 public:
  JsonOut(int argc, char** argv, std::string bench_name)
      : path_(flag_value(argc, argv, "json")), root_(obs::Json::object()) {
    root_.set("schema_version", core::kBenchSchemaVersion);
    root_.set("bench", std::move(bench_name));
  }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  bool enabled() const { return !path_.empty(); }
  obs::Json& root() { return root_; }

  /// Replace the whole record (used with core::bench_record()); the
  /// original schema_version/bench fields are kept if absent.
  void set_record(obs::Json record) {
    for (const auto& [key, value] : root_.items()) {
      if (!record.contains(key)) record.set(key, value);
    }
    root_ = std::move(record);
  }

  /// Write the record to the `--json` path, if one was given. Returns
  /// `status`, or 1 when the record cannot be written (reported on
  /// stderr as `error: ...`, like streammd_cli).
  [[nodiscard]] int finish(int status = 0) {
    if (path_.empty()) return status;
    try {
      obs::write_file(root_, path_);
      std::printf("json record written to %s\n", path_.c_str());
      return status;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

 private:
  std::string path_;
  obs::Json root_;
};

}  // namespace smd::benchio
