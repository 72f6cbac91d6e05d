#include "durability/snapshot.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "annotation/annotation_store.h"
#include "annotation/serialize.h"
#include "annotation/verification_task.h"
#include "common/fault.h"
#include "common/fault_points.h"
#include "common/status.h"
#include "common/string_util.h"
#include "durability/journal.h"
#include "durability/meta_serialize.h"
#include "meta/nebula_meta.h"

namespace nebula::durability {

namespace fs = std::filesystem;

namespace {

/// Format 2: the `tasks` file holds only retained tasks and opens with
/// the Stage-3 counters. A format-1 snapshot is not read.
constexpr uint64_t kSnapshotFormatVersion = 2;
constexpr char kCurrentFile[] = "CURRENT";

std::string SnapshotName(uint64_t seq) {
  return "snapshot-" + std::to_string(seq);
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out.is_open()) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    out << contents;
    if (!out.good()) return Status::Internal("short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot rename " + tmp + ": " + ec.message());
  }
  return Status::OK();
}

std::string EncodeTasks(const TaskImage& image) {
  std::string out = "n\t" + std::to_string(image.next_vid) + '\t' +
                    std::to_string(image.auto_rejected) + '\n';
  for (const VerificationTask& task : image.tasks) {
    AppendTaskFields(task, &out);
    out += '\n';
  }
  return out;
}

Status DecodeTasks(const std::string& text, TaskImage* image) {
  const std::vector<std::string> lines = Split(text, '\n');
  const auto counters = lines.empty() ? std::vector<std::string>{}
                                      : Split(lines[0], '\t');
  if (counters.size() != 3 || counters[0] != "n") {
    return Status::Corruption("bad snapshot task counters");
  }
  NEBULA_ASSIGN_OR_RETURN(image->next_vid, ParseU64Field(counters[1]));
  NEBULA_ASSIGN_OR_RETURN(image->auto_rejected, ParseU64Field(counters[2]));
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    NEBULA_ASSIGN_OR_RETURN(VerificationTask task,
                            ParseTaskFields(Split(lines[i], '\t')));
    image->tasks.push_back(std::move(task));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Status WriteSnapshot(const std::string& base_dir, const SnapshotInfo& info,
                     const AnnotationStore& store, const NebulaMeta& meta,
                     const TaskImage& tasks) {
  NEBULA_INJECT_FAULT(kFaultDurabilitySnapshotWrite);

  const fs::path base(base_dir);
  const fs::path staged = base / ("tmp-" + SnapshotName(info.seq));
  const fs::path final_dir = base / SnapshotName(info.seq);

  std::error_code ec;
  fs::remove_all(staged, ec);  // leftover from a crashed earlier attempt
  fs::create_directories(staged, ec);
  if (ec) {
    return Status::Internal("cannot create " + staged.string() + ": " +
                            ec.message());
  }

  {
    std::string header = "nebula-snapshot\t" +
                         std::to_string(kSnapshotFormatVersion) + '\t' +
                         std::to_string(info.seq) + '\t' +
                         std::to_string(info.committed_ops) + '\t' +
                         (info.partial_op ? "1" : "0") + '\n';
    NEBULA_RETURN_NOT_OK(
        WriteFileAtomic((staged / "SNAPSHOT").string(), header));
  }
  NEBULA_RETURN_NOT_OK(DatabaseSerializer::SaveStore(staged.string(), store));
  NEBULA_RETURN_NOT_OK(WriteFileAtomic((staged / "meta").string(),
                                       MetaSerializer::SaveToString(meta)));
  NEBULA_RETURN_NOT_OK(
      WriteFileAtomic((staged / "tasks").string(), EncodeTasks(tasks)));

  // Atomic publish: stage -> snapshot-<seq> -> CURRENT, then GC.
  fs::remove_all(final_dir, ec);
  fs::rename(staged, final_dir, ec);
  if (ec) {
    return Status::Internal("cannot publish snapshot " + final_dir.string() +
                            ": " + ec.message());
  }
  NEBULA_RETURN_NOT_OK(WriteFileAtomic((base / kCurrentFile).string(),
                                       SnapshotName(info.seq) + "\n"));

  for (const auto& entry : fs::directory_iterator(base, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == SnapshotName(info.seq)) continue;
    if (StartsWith(name, "snapshot-") || StartsWith(name, "tmp-snapshot-")) {
      fs::remove_all(entry.path(), ec);
    }
  }
  return Status::OK();
}

Result<SnapshotInfo> LoadCurrentSnapshot(const std::string& base_dir,
                                         AnnotationStore* store,
                                         NebulaMeta* meta, TaskImage* tasks) {
  const fs::path base(base_dir);
  NEBULA_ASSIGN_OR_RETURN(std::string current,
                          ReadFileToString((base / kCurrentFile).string()));
  current = std::string(Trim(current));
  if (current.empty() || current.find('/') != std::string::npos) {
    return Status::Corruption("bad CURRENT pointer '" + current + "'");
  }
  const fs::path dir = base / current;

  SnapshotInfo info;
  {
    auto header_text = ReadFileToString((dir / "SNAPSHOT").string());
    if (!header_text.ok()) {
      return Status::Corruption("CURRENT names missing snapshot " + current);
    }
    const auto lines = Split(*header_text, '\n');
    const auto fields = lines.empty() ? std::vector<std::string>{}
                                      : Split(lines[0], '\t');
    if (fields.size() != 5 || fields[0] != "nebula-snapshot") {
      return Status::Corruption("bad SNAPSHOT header in " + current);
    }
    NEBULA_ASSIGN_OR_RETURN(const uint64_t format, ParseU64Field(fields[1]));
    if (format != kSnapshotFormatVersion) {
      return Status::NotSupported("unsupported snapshot format " + fields[1]);
    }
    NEBULA_ASSIGN_OR_RETURN(info.seq, ParseU64Field(fields[2]));
    NEBULA_ASSIGN_OR_RETURN(info.committed_ops, ParseU64Field(fields[3]));
    if (fields[4] != "0" && fields[4] != "1") {
      return Status::Corruption("bad SNAPSHOT partial flag '" + fields[4] +
                                "'");
    }
    info.partial_op = fields[4] == "1";
  }

  NEBULA_RETURN_NOT_OK(DatabaseSerializer::LoadStore(dir.string(), store));
  {
    NEBULA_ASSIGN_OR_RETURN(std::string blob,
                            ReadFileToString((dir / "meta").string()));
    NEBULA_RETURN_NOT_OK(MetaSerializer::LoadFromString(blob, meta));
  }
  {
    NEBULA_ASSIGN_OR_RETURN(std::string task_text,
                            ReadFileToString((dir / "tasks").string()));
    NEBULA_RETURN_NOT_OK(DecodeTasks(task_text, tasks));
  }
  return info;
}

}  // namespace nebula::durability
