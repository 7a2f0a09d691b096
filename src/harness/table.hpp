#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "stats/summary.hpp"

namespace cbs::harness {

/// The one table formatter the bench binaries share: build a header and
/// rows of text/numeric cells, then print an aligned console table and/or
/// the same content as CSV. Numeric cells are right-aligned, text cells
/// left-aligned; a `summary` cell renders "mean ±ci95".
///
/// Usage:
///   TextTable t({"scheduler", "makespan", "stddev"});
///   t.row().cell(name).num(s.mean(), 1, "s").num(s.stddev(), 1, "s");
///   t.print();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Starts a new row; chain cell()/num()/summary() to fill it.
  TextTable& row();

  TextTable& cell(std::string text);
  TextTable& cell(std::string_view text) { return cell(std::string(text)); }
  TextTable& cell(const char* text) { return cell(std::string(text)); }

  /// Fixed-precision numeric cell with optional unit suffix ("s", "%").
  TextTable& num(double value, int precision = 2, std::string_view suffix = "");

  /// "mean ±h" from a Summary's 95% CI half-width.
  TextTable& summary(const cbs::stats::Summary& s, int precision = 1,
                     std::string_view suffix = "");

  void print(std::FILE* out = stdout) const;

 private:
  struct Cell {
    std::string text;
    bool right_align = false;
  };

  TextTable& push(Cell c);

  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace cbs::harness
