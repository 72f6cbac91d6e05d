#include "annotation/serialize.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "annotation/annotation_store.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace nebula {

namespace {

constexpr int kFormatVersion = 1;

Result<std::ofstream> OpenForWrite(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  return out;
}

Result<std::ifstream> OpenForRead(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return in;
}

const char* TypeTag(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "?";
}

Result<DataType> ParseTypeTag(const std::string& tag) {
  if (tag == "int64") return DataType::kInt64;
  if (tag == "double") return DataType::kDouble;
  if (tag == "string") return DataType::kString;
  return Status::Corruption("unknown column type tag '" + tag + "'");
}

std::string SerializeValue(const Value& v) {
  // Type is implied by the schema; only the text is stored. Doubles use
  // max precision to round-trip.
  if (v.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    return buf;
  }
  return v.ToString();
}

/// A double cell as SerializeValue writes it: a finite "%.17g" number, or
/// one of the spellings glibc gives the non-finite values.
std::optional<double> ParseDoubleCell(const std::string& text) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (text == "inf") return kInf;
  if (text == "-inf") return -kInf;
  if (text == "nan") return kNaN;
  if (text == "-nan") return -kNaN;
  return ParseFiniteDouble(text);
}

Result<Value> DeserializeValue(const std::string& text, DataType type) {
  switch (type) {
    case DataType::kInt64: {
      const std::optional<int64_t> v = ParseInt64(text);
      if (!v) return Status::Corruption("bad int64 value '" + text + "'");
      return Value(*v);
    }
    case DataType::kDouble: {
      const std::optional<double> v = ParseDoubleCell(text);
      if (!v) return Status::Corruption("bad double value '" + text + "'");
      return Value(*v);
    }
    case DataType::kString:
      return Value(text);
  }
  return Status::Internal("unreachable");
}

}  // namespace

std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeField(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 >= escaped.size()) {
      out += escaped[i];
      continue;
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        out += escaped[i];
    }
  }
  return out;
}

Status DatabaseSerializer::Save(const std::string& dir,
                                const Catalog& catalog,
                                const AnnotationStore* store) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory " + dir + ": " +
                            ec.message());
  }

  // MANIFEST
  {
    NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                            OpenForWrite(dir + "/MANIFEST"));
    out << "nebula-db\t" << kFormatVersion << "\n";
    for (const auto& table : catalog.tables()) {
      out << EscapeField(table->name()) << "\n";
    }
  }

  for (const auto& table : catalog.tables()) {
    const std::string base = dir + "/" + table->name();
    {
      NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                              OpenForWrite(base + ".schema"));
      for (const auto& col : table->schema().columns()) {
        out << EscapeField(col.name) << "\t" << TypeTag(col.type) << "\t"
            << (col.unique ? 1 : 0) << "\n";
      }
    }
    {
      NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                              OpenForWrite(base + ".rows"));
      for (Table::RowId r = 0; r < table->num_rows(); ++r) {
        const auto& row = table->GetRow(r);
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) out << '\t';
          out << EscapeField(SerializeValue(row[c]));
        }
        out << '\n';
      }
    }
  }

  {
    NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                            OpenForWrite(dir + "/foreign_keys"));
    for (const auto& fk : catalog.foreign_keys()) {
      out << EscapeField(fk.child_table) << '\t'
          << EscapeField(fk.child_column) << '\t'
          << EscapeField(fk.parent_table) << '\t'
          << EscapeField(fk.parent_column) << '\n';
    }
  }

  if (store != nullptr) {
    NEBULA_RETURN_NOT_OK(SaveStore(dir, *store));
  }
  return Status::OK();
}

Status DatabaseSerializer::SaveStore(const std::string& dir,
                                     const AnnotationStore& store) {
  {
    NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                            OpenForWrite(dir + "/annotations"));
    for (AnnotationId a = 0; a < store.num_annotations(); ++a) {
      const Annotation* annotation = *store.GetAnnotation(a);
      out << a << '\t' << EscapeField(annotation->author) << '\t'
          << EscapeField(annotation->text) << '\n';
    }
  }
  {
    NEBULA_ASSIGN_OR_RETURN(std::ofstream out,
                            OpenForWrite(dir + "/attachments"));
    for (const Attachment& edge : store.AllAttachments()) {
      out << edge.annotation << '\t' << edge.tuple.table_id << '\t'
          << edge.tuple.row << '\t'
          << (edge.type == AttachmentType::kTrue ? "T" : "P") << '\t'
          << StrFormat("%.17g", edge.weight) << '\n';
    }
  }
  return Status::OK();
}

Status DatabaseSerializer::Load(const std::string& dir, Catalog* catalog,
                                AnnotationStore* store) {
  if (catalog->num_tables() != 0) {
    return Status::InvalidArgument("catalog must be empty before Load");
  }
  NEBULA_ASSIGN_OR_RETURN(std::ifstream manifest,
                          OpenForRead(dir + "/MANIFEST"));
  std::string line;
  if (!std::getline(manifest, line)) {
    return Status::Corruption("empty MANIFEST");
  }
  {
    const auto header = Split(line, '\t');
    if (header.size() != 2 || header[0] != "nebula-db") {
      return Status::Corruption("bad MANIFEST header");
    }
    const std::optional<uint64_t> version = ParseUint64(header[1]);
    if (!version) {
      return Status::Corruption("bad MANIFEST version '" + header[1] + "'");
    }
    if (*version != kFormatVersion) {
      return Status::NotSupported("unsupported format version " + header[1]);
    }
  }

  std::vector<std::string> table_names;
  while (std::getline(manifest, line)) {
    if (!line.empty()) table_names.push_back(UnescapeField(line));
  }

  for (const auto& name : table_names) {
    const std::string base = dir + "/" + name;
    // Schema.
    NEBULA_ASSIGN_OR_RETURN(std::ifstream schema_in,
                            OpenForRead(base + ".schema"));
    std::vector<ColumnDef> columns;
    while (std::getline(schema_in, line)) {
      if (line.empty()) continue;
      const auto fields = Split(line, '\t');
      if (fields.size() != 3) {
        return Status::Corruption("bad schema line in " + base + ".schema");
      }
      NEBULA_ASSIGN_OR_RETURN(DataType type, ParseTypeTag(fields[1]));
      columns.push_back(
          {UnescapeField(fields[0]), type, fields[2] == "1"});
    }
    NEBULA_ASSIGN_OR_RETURN(Table * table,
                            catalog->CreateTable(name, Schema(columns)));
    // Rows.
    NEBULA_ASSIGN_OR_RETURN(std::ifstream rows_in,
                            OpenForRead(base + ".rows"));
    while (std::getline(rows_in, line)) {
      const auto fields = Split(line, '\t');
      if (fields.size() != columns.size()) {
        return Status::Corruption(
            StrFormat("row arity mismatch in %s.rows", name.c_str()));
      }
      std::vector<Value> row;
      row.reserve(fields.size());
      for (size_t c = 0; c < fields.size(); ++c) {
        NEBULA_ASSIGN_OR_RETURN(
            Value v, DeserializeValue(UnescapeField(fields[c]),
                                      columns[c].type));
        row.push_back(std::move(v));
      }
      NEBULA_RETURN_NOT_OK(table->Insert(std::move(row)).status());
    }
  }

  // Foreign keys.
  {
    auto fk_in = OpenForRead(dir + "/foreign_keys");
    if (fk_in.ok()) {
      while (std::getline(*fk_in, line)) {
        if (line.empty()) continue;
        const auto fields = Split(line, '\t');
        if (fields.size() != 4) {
          return Status::Corruption("bad foreign_keys line");
        }
        NEBULA_RETURN_NOT_OK(catalog->AddForeignKey(
            UnescapeField(fields[0]), UnescapeField(fields[1]),
            UnescapeField(fields[2]), UnescapeField(fields[3])));
      }
    }
  }

  if (store != nullptr) {
    NEBULA_RETURN_NOT_OK(LoadStore(dir, store));
  }
  return Status::OK();
}

Status DatabaseSerializer::LoadStore(const std::string& dir,
                                     AnnotationStore* store) {
  if (store->num_annotations() != 0) {
    return Status::InvalidArgument("store must be empty before Load");
  }
  std::string line;
  auto ann_in = OpenForRead(dir + "/annotations");
  if (ann_in.ok()) {
    while (std::getline(*ann_in, line)) {
      if (line.empty()) continue;
      const auto fields = Split(line, '\t');
      if (fields.size() != 3) {
        return Status::Corruption("bad annotations line");
      }
      const std::optional<uint64_t> want = ParseUint64(fields[0]);
      if (!want) return Status::Corruption("bad annotation id");
      const AnnotationId id = store->AddAnnotation(
          UnescapeField(fields[2]), UnescapeField(fields[1]));
      if (id != *want) {
        return Status::Corruption("annotation ids out of order");
      }
    }
  }
  auto att_in = OpenForRead(dir + "/attachments");
  if (att_in.ok()) {
    while (std::getline(*att_in, line)) {
      if (line.empty()) continue;
      const auto fields = Split(line, '\t');
      if (fields.size() != 5) {
        return Status::Corruption("bad attachments line");
      }
      const std::optional<uint64_t> annotation = ParseUint64(fields[0]);
      const std::optional<uint64_t> table_id = ParseUint64(fields[1]);
      const std::optional<uint64_t> row = ParseUint64(fields[2]);
      const std::optional<double> weight = ParseFiniteDouble(fields[4]);
      if (!annotation || !table_id || *table_id > UINT32_MAX || !row ||
          (fields[3] != "T" && fields[3] != "P") || !weight) {
        return Status::Corruption("bad attachments line");
      }
      const AttachmentType type = fields[3] == "T"
                                      ? AttachmentType::kTrue
                                      : AttachmentType::kPredicted;
      const Status attached =
          store->Attach(*annotation,
                        {static_cast<uint32_t>(*table_id), *row}, type,
                        *weight);
      if (!attached.ok()) {
        return Status::Corruption("bad attachment: " + attached.ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace nebula
