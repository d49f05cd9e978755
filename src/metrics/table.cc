#include "src/metrics/table.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace newtos {

void Table::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

std::string Table::Pct(double fraction, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void Table::Print(std::ostream& out, const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  if (!title.empty()) {
    out << "== " << title << " ==\n";
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < headers_.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      out << "  " << cell;
      for (size_t pad = cell.size(); pad < widths[i]; ++pad) {
        out << ' ';
      }
    }
    out << "\n";
  };
  print_row(headers_);
  size_t rule = 0;
  for (size_t w : widths) {
    rule += w + 2;
  }
  for (size_t i = 0; i < rule; ++i) {
    out << '-';
  }
  out << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

namespace {

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::WriteCsv(std::ostream& out) const {
  auto write_row = [&](const std::vector<std::string>& cells, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) {
        out << ',';
      }
      out << CsvEscape(i < cells.size() ? cells[i] : std::string());
    }
    out << "\n";
  };
  write_row(headers_, headers_.size());
  for (const auto& row : rows_) {
    write_row(row, headers_.size());
  }
}

bool Table::WriteCsvFile(const std::string& path) const {
  // Rendered first, then written with a checked flush, so a full disk or an
  // unwritable path fails the caller instead of leaving a truncated file.
  std::ostringstream buf;
  WriteCsv(buf);
  const std::string contents = buf.str();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace newtos
