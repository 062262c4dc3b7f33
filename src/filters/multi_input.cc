#include "src/filters/multi_input.h"

#include <utility>

namespace eden {
namespace {

std::string AsLine(const Value& item) {
  if (const std::string* s = item.AsStr()) {
    return *s;
  }
  return item.ToString();
}

}  // namespace

bool ParseSedCommand(const std::string& line, SedCommand& out) {
  if (line.size() < 3) {
    return false;
  }
  char verb = line[0];
  char sep = line[1];
  if (verb != 's' && verb != 'd' && verb != 'a' && verb != 'q') {
    return false;
  }
  size_t second = line.find(sep, 2);
  if (second == std::string::npos) {
    return false;
  }
  out.verb = verb;
  out.a = line.substr(2, second - 2);
  out.b.clear();
  if (verb == 's') {
    size_t third = line.find(sep, second + 1);
    if (third == std::string::npos) {
      return false;
    }
    out.b = line.substr(second + 1, third - second - 1);
  }
  return true;
}

// ----------------------------------------------------------------------- Sed

SedLite::SedLite(Kernel& kernel, StreamRef commands, StreamRef text,
                 size_t work_ahead)
    : Eject(kernel, kType),
      command_reader_(*this, commands.source, commands.channel),
      text_reader_(*this, text.source, text.channel),
      server_(*this) {
  server_.DeclareChannel(std::string(kChanOut), ChannelOptions{.hiwat = work_ahead});
  server_.InstallOps();
}

void SedLite::OnStart() { Spawn(Run()); }

std::vector<std::string> SedLite::Apply(const std::string& line, bool& quit) {
  std::vector<std::string> out;
  std::string current = line;
  for (const SedCommand& command : commands_) {
    switch (command.verb) {
      case 'd':
        if (current.find(command.a) != std::string::npos) {
          return out;  // deleted
        }
        break;
      case 's': {
        if (command.a.empty()) {
          break;
        }
        size_t pos = 0;
        while ((pos = current.find(command.a, pos)) != std::string::npos) {
          current.replace(pos, command.a.size(), command.b);
          pos += command.b.size();
        }
        break;
      }
      case 'a':
        break;  // handled after the line is emitted
      case 'q':
        break;  // handled by the caller via quit_after_
    }
  }
  out.push_back(current);
  for (const SedCommand& command : commands_) {
    if (command.verb == 'a') {
      out.push_back(command.a);
    }
  }
  if (quit_after_ >= 0 && emitted_ + static_cast<int64_t>(out.size()) >= quit_after_) {
    quit = true;
  }
  return out;
}

Task<void> SedLite::Run() {
  // Phase 1: drain the command input — the §5 "command input".
  for (;;) {
    std::optional<Value> line = co_await command_reader_.Next();
    if (!line) {
      break;
    }
    SedCommand command;
    if (ParseSedCommand(AsLine(*line), command)) {
      if (command.verb == 'q') {
        quit_after_ = std::atoll(command.a.c_str());
      } else {
        commands_.push_back(std::move(command));
      }
    }
  }
  // Phase 2: edit the text input.
  bool quit = false;
  for (;;) {
    std::optional<Value> line = co_await text_reader_.Next();
    if (!line) {
      break;
    }
    for (std::string& edited : Apply(AsLine(*line), quit)) {
      if (quit_after_ >= 0 && emitted_ >= quit_after_) {
        quit = true;
        break;
      }
      emitted_++;
      co_await server_.Write(kChanOut, Value(std::move(edited)));
    }
    if (quit) {
      break;
    }
  }
  server_.CloseAll();
}

// ----------------------------------------------------------------------- Cmp

CmpEject::CmpEject(Kernel& kernel, StreamRef left, StreamRef right,
                   size_t work_ahead)
    : Eject(kernel, kType),
      left_(*this, left.source, left.channel),
      right_(*this, right.source, right.channel),
      server_(*this) {
  server_.DeclareChannel(std::string(kChanOut), ChannelOptions{.hiwat = work_ahead});
  server_.InstallOps();
}

void CmpEject::OnStart() { Spawn(Run()); }

Task<void> CmpEject::Run() {
  int64_t record = 0;
  for (;;) {
    std::optional<Value> a = co_await left_.Next();
    std::optional<Value> b = co_await right_.Next();
    record++;
    if (!a && !b) {
      break;
    }
    if (!a || !b || *a != *b) {
      differences_++;
      std::string line = std::to_string(record) + ": " +
                         (a ? AsLine(*a) : std::string("<eof>")) + " | " +
                         (b ? AsLine(*b) : std::string("<eof>"));
      co_await server_.Write(kChanOut, Value(std::move(line)));
    }
    if (!a || !b) {
      break;
    }
  }
  co_await server_.Write(kChanOut,
                         Value("cmp: " + std::to_string(differences_) +
                               " differing records"));
  server_.CloseAll();
}

// --------------------------------------------------------------------- Merge

MergeEject::MergeEject(Kernel& kernel, std::vector<StreamRef> inputs,
                       size_t work_ahead)
    : Eject(kernel, kType), server_(*this) {
  for (const StreamRef& input : inputs) {
    readers_.push_back(
        std::make_unique<StreamReader>(*this, input.source, input.channel));
  }
  server_.DeclareChannel(std::string(kChanOut), ChannelOptions{.hiwat = work_ahead});
  server_.InstallOps();
}

void MergeEject::OnStart() { Spawn(Run()); }

Task<void> MergeEject::Run() {
  std::vector<bool> live(readers_.size(), true);
  size_t remaining = readers_.size();
  while (remaining > 0) {
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!live[i]) {
        continue;
      }
      std::optional<Value> item = co_await readers_[i]->Next();
      if (!item) {
        live[i] = false;
        remaining--;
        continue;
      }
      co_await server_.Write(kChanOut, std::move(*item));
    }
  }
  server_.CloseAll();
}

}  // namespace eden
