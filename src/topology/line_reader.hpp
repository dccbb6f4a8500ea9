// Line tokenizer shared by the topology text readers (serialization.cpp's
// .topo loader and caida_import.cpp). Private to src/topology: not part of
// the library's public headers.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace bsr::topology::detail {

/// Throws std::runtime_error "<who>: line <n>: <what>", plus a (truncated)
/// snippet of the offending line, so a corrupt multi-megabyte file points
/// straight at the bad record.
[[noreturn]] inline void fail_at(std::string_view who, std::size_t line_no,
                                 const std::string& what,
                                 std::string_view line_text = {}) {
  std::string msg(who);
  msg += ": line " + std::to_string(line_no) + ": " + what;
  if (!line_text.empty()) {
    constexpr std::size_t kSnippet = 60;
    msg += " [\"";
    msg += line_text.substr(0, kSnippet);
    msg += line_text.size() > kSnippet ? "...\"]" : "\"]";
  }
  throw std::runtime_error(msg);
}

/// The stream's lines, read in fixed-size blocks so the loader's transient
/// memory does not grow with the file. A line runs up to '\n' (a last line
/// without one still counts) and loses any '#' comment; next() skips lines
/// left holding only ' ', '\t' and '\r'.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is), buf_(kBlock) {}

  /// Advances to the next non-blank line; false at the end of the input.
  bool next() {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      const std::size_t avail = end_ - pos_;
      const auto* newline = static_cast<const char*>(std::memchr(begin, '\n', avail));
      std::size_t length = avail;
      if (newline != nullptr) {
        length = static_cast<std::size_t>(newline - begin);
        pos_ += length + 1;
      } else if (!eof_) {
        refill();
        continue;
      } else if (avail == 0) {
        return false;
      } else {
        pos_ = end_;
      }
      ++line_no_;
      std::string_view line(begin, length);
      line = line.substr(0, line.find('#'));
      if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
        line_ = line;
        return true;
      }
    }
  }

  /// The current line; valid until the next call to next().
  [[nodiscard]] std::string_view line() const noexcept { return line_; }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  /// Keeps the unfinished line at the front of the buffer and reads behind
  /// it; the buffer only grows for a line longer than itself.
  void refill() {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const std::size_t want = buf_.size() - end_;
    is_.read(buf_.data() + end_, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is_.gcount());
    end_ += got;
    eof_ = got < want;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // first unread byte
  std::size_t end_ = 0;  // one past the last byte read
  bool eof_ = false;
  std::string_view line_;
  std::size_t line_no_ = 0;
};

/// One line tokenized in place under the grammar of `istream >>`: tokens
/// are separated by ' ', '\t', '\n', '\v', '\f', '\r' or the extra
/// `separator`; an integer is an optional sign and decimal digits, ends at
/// the first other character (which starts the next token), and is
/// malformed if it overflows its type. An unsigned type takes no '-' sign.
class Fields {
 public:
  explicit Fields(std::string_view line, char separator = ' ')
      : p_(line.data()), end_(line.data() + line.size()), separator_(separator) {}

  /// Reads "<tag> <int>..." into `values`; false if the tag differs or an
  /// integer is missing or malformed.
  template <std::size_t N>
  bool record(std::string_view tag, std::array<long long, N>& values) {
    if (word() != tag) return false;
    for (long long& value : values) {
      if (!integer(value)) return false;
    }
    return true;
  }

  /// The next token (empty at the end of the line).
  std::string_view word() {
    skip_space();
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  /// Reads the next integer; false if it is missing or malformed.
  template <class Int>
  bool integer(Int& out) {
    skip_space();
    // from_chars takes a '-' sign but not '+'; after a '+' a digit must follow.
    if (p_ != end_ && *p_ == '+') {
      ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') return false;
    }
    const auto [next, error] = std::from_chars(p_, end_, out);
    p_ = next;
    return error == std::errc{};
  }

  /// True iff nothing but separators remains.
  bool at_end() {
    skip_space();
    return p_ == end_;
  }

 private:
  bool is_space(char c) const {
    return c == ' ' || (c >= '\t' && c <= '\r') || c == separator_;
  }

  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
  char separator_;
};

}  // namespace bsr::topology::detail
