// The bootstrap transput system of §7.
//
// "Currently most data of interest is in the Unix file system, so a
//  bootstrap Eden transput system has been constructed. This consists of a
//  'Unix File System' Eject for each physical machine, which responds to two
//  invocations, NewStream and UseStream."
//
//   NewStream {path}                 -> {stream: uid}
//     Creates a transient UnixFileSource Eject that answers Transfer with
//     the file's lines; on end (or Close) it "deactivates itself and, since
//     it has never Checkpointed, disappears."
//
//   UseStream {path, source, chan}   -> {file: uid}
//     Creates a transient UnixFileSink Eject that "repeatedly invokes
//     Transfer on the capability and records the data it receives. When an
//     end of stream status is returned ... the appropriate Unix file is
//     opened, written and closed."
//
// The "Unix file system" itself is HostFs, an in-memory path -> text store
// standing in for the prototype's real Unix substrate (see DESIGN.md §2).
#ifndef SRC_FS_UNIX_FS_H_
#define SRC_FS_UNIX_FS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/stream.h"
#include "src/core/stream_reader.h"
#include "src/eden/eject.h"

namespace eden {

// In-memory Unix-like file tree (text files keyed by absolute path).
class HostFs {
 public:
  void Put(const std::string& path, std::string text) { files_[path] = std::move(text); }
  std::optional<std::string> Get(const std::string& path) const;
  bool Exists(const std::string& path) const { return files_.count(path) > 0; }
  size_t size() const { return files_.size(); }

 private:
  std::map<std::string, std::string> files_;
};

// Transient source Eject streaming one host file (never checkpoints).
class UnixFileSource : public Eject {
 public:
  static constexpr const char* kType = "UnixFile";

  UnixFileSource(Kernel& kernel, std::string text);

 private:
  void HandleTransfer(InvocationContext ctx);

  std::vector<std::string> lines_;
  size_t cursor_ = 0;
};

// Transient sink Eject recording a stream into the host file system.
class UnixFileSink : public Eject {
 public:
  static constexpr const char* kType = "UnixFile";

  UnixFileSink(Kernel& kernel, HostFs& host, std::string path, Uid source,
               Value channel);

  void OnStart() override;

 private:
  Task<void> Record();

  HostFs& host_;
  std::string path_;
  StreamReader reader_;
};

// One per physical machine in the prototype; here one per HostFs.
class UnixFileSystemEject : public Eject {
 public:
  static constexpr const char* kType = "UnixFileSystem";

  UnixFileSystemEject(Kernel& kernel, HostFs& host);

  HostFs& host() { return host_; }

 private:
  void HandleNewStream(InvocationContext ctx);
  void HandleUseStream(InvocationContext ctx);

  HostFs& host_;
};

}  // namespace eden

#endif  // SRC_FS_UNIX_FS_H_
