#include "src/fs/path.h"

namespace eden {

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : path) {
    if (c == '/') {
      if (!current.empty()) {
        parts.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    parts.push_back(std::move(current));
  }
  return parts;
}

Task<ResolveResult> ResolvePath(Eject& self, Uid root, std::string path) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.size() > kMaxPathDepth) {
    co_return ResolveResult{Status(StatusCode::kInvalidArgument, "path too deep"),
                            Uid()};
  }
  Uid current = root;
  for (const std::string& part : parts) {
    InvokeResult result =
        co_await self.Invoke(current, "Lookup", Value().Set("name", Value(part)));
    if (!result.ok()) {
      co_return ResolveResult{std::move(result.status), Uid()};
    }
    auto next = result.value().Field("uid").AsUid();
    if (!next) {
      co_return ResolveResult{Status(StatusCode::kInternal, "Lookup reply lacked uid"),
                              Uid()};
    }
    current = *next;
  }
  co_return ResolveResult{Status::Ok(), current};
}

ResolveResult ResolvePathBlocking(Kernel& kernel, Uid root,
                                  const std::string& path) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.size() > kMaxPathDepth) {
    return ResolveResult{Status(StatusCode::kInvalidArgument, "path too deep"), Uid()};
  }
  Uid current = root;
  for (const std::string& part : parts) {
    InvokeResult result =
        kernel.InvokeAndRun(current, "Lookup", Value().Set("name", Value(part)));
    if (!result.ok()) {
      return ResolveResult{std::move(result.status), Uid()};
    }
    auto next = result.value().Field("uid").AsUid();
    if (!next) {
      return ResolveResult{Status(StatusCode::kInternal, "Lookup reply lacked uid"),
                           Uid()};
    }
    current = *next;
  }
  return ResolveResult{Status::Ok(), current};
}

}  // namespace eden
