#include "harness/table.hpp"

#include <algorithm>

namespace cbs::harness {

namespace {

std::string format_double(double value, int precision,
                          std::string_view suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string out(buf);
  out.append(suffix);
  return out;
}

}  // namespace

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

TextTable& TextTable::row() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::push(Cell c) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(c));
  return *this;
}

TextTable& TextTable::cell(std::string text) {
  return push({std::move(text), false});
}

TextTable& TextTable::num(double value, int precision,
                          std::string_view suffix) {
  return push({format_double(value, precision, suffix), true});
}

TextTable& TextTable::summary(const cbs::stats::Summary& s, int precision,
                              std::string_view suffix) {
  std::string text = format_double(s.mean(), precision, suffix);
  if (s.count() > 1) {
    text += " \xC2\xB1";  // ±
    text += format_double(s.ci95_halfwidth(), precision, suffix);
  }
  return push({std::move(text), true});
}

void TextTable::print(std::FILE* out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  auto display_width = [](const std::string& s) {
    // Count UTF-8 code points, not bytes (the ± in summary cells).
    return static_cast<std::size_t>(
        std::count_if(s.begin(), s.end(), [](unsigned char ch) {
          return (ch & 0xC0) != 0x80;
        }));
  };
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row[c].text));
    }
  }
  auto print_padded = [&](const std::string& text, std::size_t width,
                          bool right) {
    const std::size_t w = display_width(text);
    const std::size_t pad = width > w ? width - w : 0;
    if (right) {
      std::fprintf(out, "%*s%s", static_cast<int>(pad), "", text.c_str());
    } else {
      std::fprintf(out, "%s%*s", text.c_str(), static_cast<int>(pad), "");
    }
  };
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) std::fputs("  ", out);
    print_padded(header_[c], widths[c], c > 0);
  }
  std::fputc('\n', out);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) std::fputs("  ", out);
      const std::size_t width = c < widths.size() ? widths[c] : 0;
      print_padded(row[c].text, width, row[c].right_align);
    }
    std::fputc('\n', out);
  }
}

}  // namespace cbs::harness
