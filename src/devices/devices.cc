#include "src/devices/devices.h"

#include <utility>

#include "src/core/stream.h"

namespace eden {
namespace {

std::string AsLine(const Value& item) {
  if (const std::string* s = item.AsStr()) {
    return *s;
  }
  return item.ToString();
}

}  // namespace

// ---------------------------------------------------------------- TerminalSink

TerminalSink::TerminalSink(Kernel& kernel, TerminalOptions options)
    : Eject(kernel, kType), options_(options) {
  Register("Connect", [this](InvocationContext ctx) {
    auto source = ctx.Arg("source").AsUid();
    if (!source) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Connect needs a source uid");
      return;
    }
    Value channel = ctx.Arg(kFieldChannel);
    if (channel.is_nil()) {
      channel = Value(std::string(kChanOut));
    }
    Connect(*source, std::move(channel));
    ctx.Reply();
  });
  Register("Display", [this](InvocationContext ctx) {
    ValueList lines;
    for (const std::string& line : screen_) {
      lines.push_back(Value(line));
    }
    ctx.Reply(Value(std::move(lines)));
  });
}

void TerminalSink::Connect(Uid source, Value channel) {
  generation_++;  // retire any pump reading the previous source
  auto reader = std::make_unique<StreamReader>(
      *this, source, std::move(channel), StreamReader::Options{options_.batch, 0});
  active_pumps_++;
  Spawn(Pump(std::move(reader), generation_));
}

Task<void> TerminalSink::Pump(std::unique_ptr<StreamReader> reader,
                              uint64_t generation) {
  for (;;) {
    std::optional<Value> item = co_await reader->Next();
    if (!item || generation != generation_) {
      break;  // stream ended, or the terminal was redirected elsewhere
    }
    screen_.push_back(AsLine(*item));
    lines_shown_++;
    if (screen_.size() > options_.scrollback) {
      screen_.erase(screen_.begin());
    }
  }
  active_pumps_--;
}

// ----------------------------------------------------------------- PrinterSink

PrinterSink::PrinterSink(Kernel& kernel, PrinterOptions options)
    : Eject(kernel, kType), options_(options) {
  Register("Print", [this](InvocationContext ctx) {
    auto source = ctx.Arg("source").AsUid();
    if (!source) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Print needs a source uid");
      return;
    }
    Value channel = ctx.Arg(kFieldChannel);
    if (channel.is_nil()) {
      channel = Value(std::string(kChanOut));
    }
    Print(*source, std::move(channel));
    ctx.Reply();
  });
}

void PrinterSink::Print(Uid source, Value channel) {
  auto reader = std::make_unique<StreamReader>(
      *this, source, std::move(channel), StreamReader::Options{options_.batch, 0});
  active_jobs_++;
  Spawn(Job(std::move(reader)));
}

Task<void> PrinterSink::Job(std::unique_ptr<StreamReader> reader) {
  std::vector<std::string> page;
  for (;;) {
    std::optional<Value> item = co_await reader->Next();
    if (!item) {
      break;
    }
    page.push_back(AsLine(*item));
    if (static_cast<int64_t>(page.size()) >= options_.lines_per_page) {
      pages_.push_back(std::move(page));
      page.clear();
    }
  }
  if (!page.empty()) {
    pages_.push_back(std::move(page));
  }
  active_jobs_--;
  jobs_completed_++;
}

// ---------------------------------------------------------------- ReportWindow

ReportWindow::ReportWindow(Kernel& kernel) : Eject(kernel, kType) {
  Register("Attach", [this](InvocationContext ctx) {
    auto source = ctx.Arg("source").AsUid();
    if (!source) {
      ctx.ReplyError(StatusCode::kInvalidArgument, "Attach needs a source uid");
      return;
    }
    Value channel = ctx.Arg(kFieldChannel);
    if (channel.is_nil()) {
      channel = Value(std::string(kChanReport));
    }
    Attach(*source, std::move(channel), ctx.Arg("label").StrOr("?"));
    ctx.Reply();
  });
}

void ReportWindow::Attach(Uid source, Value channel, std::string label) {
  auto reader = std::make_unique<StreamReader>(*this, source, std::move(channel));
  active_pumps_++;
  Spawn(Pump(std::move(reader), std::move(label)));
}

Task<void> ReportWindow::Pump(std::unique_ptr<StreamReader> reader,
                              std::string label) {
  for (;;) {
    std::optional<Value> item = co_await reader->Next();
    if (!item) {
      break;
    }
    lines_.push_back(label + ": " + AsLine(*item));
  }
  active_pumps_--;
}

// -------------------------------------------------------------------- NullSink

NullSink::NullSink(Kernel& kernel, Uid source, Value channel, uint64_t max_items,
                   int64_t batch)
    : Eject(kernel, kType),
      reader_(*this, source, std::move(channel), StreamReader::Options{batch, 0}),
      max_items_(max_items) {}

void NullSink::OnStart() { Spawn(Drain()); }

Task<void> NullSink::Drain() {
  for (;;) {
    std::optional<Value> item = co_await reader_.Next();
    if (!item) {
      break;
    }
    discarded_++;
    if (max_items_ > 0 && discarded_ >= max_items_) {
      break;
    }
  }
  done_ = true;
}

// ----------------------------------------------------------------- ClockSource

ClockSource::ClockSource(Kernel& kernel) : Eject(kernel, kType) {
  Register("Transfer", [this](InvocationContext ctx) {
    const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
    if (args == nullptr) {
      return;
    }
    int64_t max = std::max<int64_t>(args->max, 1);
    ValueList items;
    for (int64_t i = 0; i < max; ++i) {
      items.push_back(Value("tick " + std::to_string(kernel_.now())));
    }
    ctx.Reply(BatchReply{std::move(items), /*end=*/false});
  });
}

// -------------------------------------------------------------- KeyboardSource

KeyboardSource::KeyboardSource(Kernel& kernel, std::vector<Keystroke> script)
    : Eject(kernel, kType), script_(std::move(script)), server_(*this) {
  // Typed input is never throttled by the reader: effectively unbounded, as
  // a real keyboard buffer would (approximately) be.
  server_.DeclareChannel(std::string(kChanOut), ChannelOptions{.hiwat = 1 << 20});
  server_.InstallOps();
}

void KeyboardSource::OnStart() { Spawn(Typist()); }

Task<void> KeyboardSource::Typist() {
  for (Keystroke& keystroke : script_) {
    if (keystroke.delay > 0) {
      co_await Sleep(keystroke.delay);
    }
    co_await server_.Write(kChanOut, Value(std::move(keystroke.line)));
    typed_++;
  }
  server_.CloseAll();
}

// ---------------------------------------------------------------- RandomSource

RandomSource::RandomSource(Kernel& kernel, uint64_t seed, uint64_t total,
                           int words_per_line)
    : Eject(kernel, kType), rng_(seed), total_(total), words_per_line_(words_per_line) {
  Register("Transfer", [this](InvocationContext ctx) {
    const TransferArgs* args = ctx.RecordOrReject<TransferArgs>();
    if (args == nullptr) {
      return;
    }
    int64_t max = std::max<int64_t>(args->max, 1);
    ValueList items;
    while (max-- > 0 && (total_ == 0 || served_ < total_)) {
      std::string line;
      for (int w = 0; w < words_per_line_; ++w) {
        if (w > 0) {
          line += ' ';
        }
        line += rng_.Word(2, 9);
      }
      items.push_back(Value(std::move(line)));
      served_++;
    }
    bool end = total_ != 0 && served_ >= total_;
    ctx.Reply(BatchReply{std::move(items), end});
  });
}

}  // namespace eden
