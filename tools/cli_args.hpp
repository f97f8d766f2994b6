// The command-line reader the tools share.  A flag's value is the next
// argument, and a number must parse whole and fit its type: digits only for
// an integer, a finite decimal for a real.  A missing value, a malformed
// number or trailing garbage prints the flag and exits 2, the tools'
// usage-error status, instead of reading as 0.

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ule::cli {

class ArgReader {
 public:
  ArgReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next flag; false after the last argument.
  bool next() {
    flag_ = ++i_;
    return i_ < argc_;
  }

  /// The current flag.
  std::string flag() const { return argv_[flag_]; }

  /// The current flag's value.
  const char* value() {
    if (i_ + 1 >= argc_) fail("needs a value");
    return argv_[++i_];
  }

  /// The current flag's value as a T (an integer or a floating-point type).
  template <class T>
  T number() {
    return parse<T>(value());
  }

  /// The current flag's value as a real in [0, 1].
  double fraction() {
    const char* text = value();
    const double v = parse<double>(text);
    if (v < 0 || v > 1) fail(std::string("must be in [0, 1], got ") + text);
    return v;
  }

  /// The current flag's value as a comma-separated list of integers.
  std::vector<std::uint64_t> number_list() {
    std::vector<std::uint64_t> out;
    const std::string_view text = value();
    for (std::size_t pos = 0;;) {
      const std::size_t comma = text.find(',', pos);
      out.push_back(parse<std::uint64_t>(text.substr(pos, comma - pos)));
      if (comma == std::string_view::npos) return out;
      pos = comma + 1;
    }
  }

 private:
  template <class T>
  T parse(std::string_view text) const {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    const std::string quoted = "\"" + std::string(text) + "\"";
    if (ec == std::errc::result_out_of_range) fail("is out of range: " + quoted);
    bool ok = ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
    if (!ok) fail("expects a number, got " + quoted);
    return v;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s %s\n", argv_[flag_], why.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  int flag_ = 0;
};

}  // namespace ule::cli
