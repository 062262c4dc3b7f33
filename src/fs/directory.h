// DirectoryEject and DirectoryConcatenator.
//
// "In Eden directories are also Ejects; they respond to invocations like
//  Lookup, DeleteEntry, AddEntry and List. Each entry in a directory Eject
//  is in principle a pair consisting of a mnemonic lookup string and the
//  Unique Identifier of the Eject."                              (paper §2)
//
// "Eden Directories also behave as sources; ... The effect of a List
//  invocation is to prepare the directory to receive a number of Read
//  invocations, which transfer a printable representation of the
//  directory's contents to the reader."                          (paper §4)
//
// The DirectoryConcatenator implements §2's PATH-like lookup over a list of
// directories, "by actually performing the multiple lookups".
#ifndef SRC_FS_DIRECTORY_H_
#define SRC_FS_DIRECTORY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/stream.h"
#include "src/eden/eject.h"

namespace eden {

class DirectoryEject : public Eject {
 public:
  static constexpr const char* kType = "Directory";

  explicit DirectoryEject(Kernel& kernel);

  static void RegisterType(Kernel& kernel);

  Value SaveState() override;
  void RestoreState(const Value& state) override;

  // Local helpers for setup code (the protocol path is AddEntry etc.).
  bool AddEntryLocal(const std::string& name, Uid uid);
  std::optional<Uid> LookupLocal(const std::string& name) const;

 private:
  void HandleList(InvocationContext ctx);
  void HandleTransfer(InvocationContext ctx);

  std::map<std::string, Uid> entries_;
  // Listing sessions prepared by List: capability -> remaining lines.
  std::map<Uid, std::vector<std::string>> listings_;
};

class DirectoryConcatenator : public Eject {
 public:
  static constexpr const char* kType = "DirectoryConcatenator";

  DirectoryConcatenator(Kernel& kernel, std::vector<Uid> directories);

 private:
  Task<void> HandleLookup(InvocationContext ctx);
  Task<void> HandleList(InvocationContext ctx);
  void HandleTransfer(InvocationContext ctx);

  std::vector<Uid> directories_;
  std::map<Uid, std::vector<std::string>> listings_;
};

}  // namespace eden

#endif  // SRC_FS_DIRECTORY_H_
