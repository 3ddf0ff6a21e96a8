#include "table/schema.h"

#include <set>
#include <sstream>

namespace farview {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kUInt64:
      return "UINT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kChar:
      return "CHAR";
  }
  return "?";
}

Result<Schema> Schema::Create(std::vector<Column> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  std::set<std::string> names;
  for (const Column& c : columns) {
    if (c.name.empty()) {
      return Status::InvalidArgument("column with empty name");
    }
    if (!names.insert(c.name).second) {
      return Status::InvalidArgument("duplicate column name: " + c.name);
    }
    if (c.type != DataType::kChar && c.width != 8) {
      return Status::InvalidArgument("numeric column " + c.name +
                                     " must be 8 bytes wide");
    }
    if (c.type == DataType::kChar && c.width == 0) {
      return Status::InvalidArgument("CHAR column " + c.name +
                                     " must have nonzero width");
    }
  }
  Schema s;
  s.columns_ = std::move(columns);
  s.offsets_.reserve(s.columns_.size());
  uint32_t off = 0;
  for (const Column& c : s.columns_) {
    s.offsets_.push_back(off);
    off += c.width;
  }
  s.tuple_width_ = off;
  return s;
}

Schema Schema::DefaultWideRow(int n) {
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    cols.push_back(Column{std::string("a").append(std::to_string(i)),
                          DataType::kInt64, 8});
  }
  Result<Schema> r = Create(std::move(cols));
  return std::move(r).value();
}

Schema Schema::Strings(int n, uint32_t width) {
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    cols.push_back(Column{std::string("s").append(std::to_string(i)),
                          DataType::kChar, width});
  }
  Result<Schema> r = Create(std::move(cols));
  return std::move(r).value();
}

Result<int> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound("no column named " + name);
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& a = columns_[i];
    const Column& b = other.columns_[i];
    if (a.name != b.name || a.type != b.type || a.width != b.width) {
      return false;
    }
  }
  return true;
}

Schema Schema::Project(const std::vector<int>& column_indices) const {
  std::vector<Column> cols;
  cols.reserve(column_indices.size());
  for (int i : column_indices) {
    cols.push_back(columns_[static_cast<size_t>(i)]);
  }
  Result<Schema> r = Create(std::move(cols));
  return std::move(r).value();
}

std::string Schema::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out << ", ";
    const Column& c = columns_[i];
    out << c.name << " " << DataTypeToString(c.type);
    if (c.type == DataType::kChar) out << "(" << c.width << ")";
  }
  out << ")";
  return out.str();
}

}  // namespace farview
