#include "json/bench_doc.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace ule::json {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void JsonObject::key(std::string_view k) {
  if (body_.empty())
    body_.reserve(128);  // one allocation for a typical row
  else
    body_ += ", ";
  body_ += '"';
  body_ += k;
  body_ += "\": ";
}

JsonObject& JsonObject::set(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  body_ += v;
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::set(std::string_view k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::set(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::set(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

std::string JsonReport::str() const {
  std::size_t size = 64 + bench_.size();
  for (const JsonObject& row : rows_) size += row.body_.size() + 8;
  std::string out;
  out.reserve(size);
  out += "{\n  \"bench\": \"";
  out += bench_;
  out += "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "    {";
    out += rows_[i].body_;
    out += i + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void JsonReport::write(const std::string& path) const {
  write_text_file(path, str());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

const Value* Row::find(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  Document document() {
    Document doc;
    expect('{');
    expect_key("bench");
    doc.bench = string();
    expect(',');
    expect_key("rows");
    expect('[');
    if (!eat(']')) {
      do doc.rows.push_back(row());
      while (eat(','));
      expect(']');
    }
    expect('}');
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after the document");
    return doc;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("bench document parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  std::string string() {
    expect('"');
    const std::size_t end = s_.find('"', pos_);
    if (end == std::string_view::npos) fail("unterminated string");
    std::string out(s_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return out;
  }

  void expect_key(std::string_view key) {
    skip_ws();
    const std::size_t at = pos_;
    if (string() != key) {
      pos_ = at;
      fail("expected key \"" + std::string(key) + "\"");
    }
    expect(':');
  }

  Value value() {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '"') return {string(), true};
    const std::string_view rest = s_.substr(pos_);
    std::size_t len = 0;
    if (rest.starts_with("true")) {
      len = 4;
    } else if (rest.starts_with("false")) {
      len = 5;
    } else {
      while (len < rest.size() &&
             (std::isdigit(static_cast<unsigned char>(rest[len])) != 0 ||
              std::string_view("+-.eE").find(rest[len]) !=
                  std::string_view::npos))
        ++len;
    }
    if (len == 0) fail("expected a string, number or boolean");
    pos_ += len;
    return {std::string(rest.substr(0, len)), false};
  }

  Row row() {
    expect('{');
    Row row;
    if (eat('}')) return row;
    do {
      skip_ws();
      const std::size_t at = pos_;
      std::string key = string();
      if (row.find(key) != nullptr) {
        pos_ = at;
        fail("duplicate key \"" + key + "\" in a row");
      }
      expect(':');
      row.fields.emplace_back(std::move(key), value());
    } while (eat(','));
    expect('}');
    return row;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Document parse(std::string_view text) { return Reader(text).document(); }

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

void write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the stdio buffer: a full disk usually surfaces here.
  if (std::fclose(f) != 0 || !wrote)
    throw std::runtime_error("cannot write " + path + ": " +
                             std::strerror(errno));
}

std::string read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw std::runtime_error("cannot read " + path);
  return out;
}

}  // namespace ule::json
