// Text-table and CSV emission for benchmark harnesses.
//
// Every bench binary prints the rows/series of the paper table or figure it
// regenerates; TablePrinter keeps that output aligned and CsvWriter persists
// the same data for plotting.
#ifndef WAYFINDER_SRC_UTIL_TABLE_H_
#define WAYFINDER_SRC_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace wayfinder {

// Accumulates rows of strings and prints them with padded columns.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  // Adds a row; it may have fewer cells than the header (padded empty).
  void AddRow(std::vector<std::string> cells);

  // Formats a double with the given precision (fixed notation).
  static std::string Num(double value, int precision = 2);

  // Writes the aligned table, header first, followed by a separator line.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Streams rows into a CSV file; commas/quotes/newlines are quoted per
// RFC 4180.
class CsvWriter {
 public:
  // Opens (truncates) the file and writes the header row. Check ok() after
  // construction.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return ok_; }

  void WriteRow(const std::vector<std::string>& cells);

  // Convenience overload for numeric rows.
  void WriteRow(const std::vector<double>& cells);

 private:
  void WriteEscaped(const std::string& cell);

  void* file_ = nullptr;  // FILE*, kept opaque to avoid <cstdio> in the header.
  bool ok_ = false;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_TABLE_H_
