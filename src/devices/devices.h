// Device Ejects (paper §4).
//
// "Output devices such as terminals and printers would provide a potentially
//  infinite supply of Read invocations. Connecting a terminal to a filter
//  Eject would be rather like starting a pump..."
//
//  * TerminalSink — pumps a source onto a scrollback screen; Connect allows
//    dynamic redirection ("Redirection of input and output can be provided
//    very naturally in a system where each entity is referred to by means of
//    a unique identifier", §8).
//  * PrinterSink  — pumps and paginates onto numbered pages.
//  * ReportWindow — a sink that reads from *multiple* sources, each tagged;
//    "It is assumed that the Report Window is designed to read from multiple
//    sources" (Figure 4 caption).
//  * NullSink     — "The null sink is an Eject which reads indiscriminately
//    and ignores the data it is given."
//  * ClockSource  — "An Eject which responds to a read invocation by
//    returning the current date and time is a source."
//  * RandomSource — deterministic pseudo-random line source for workloads.
#ifndef SRC_DEVICES_DEVICES_H_
#define SRC_DEVICES_DEVICES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/eden/eject.h"
#include "src/eden/random.h"

namespace eden {

// -------------------------------------------------------------- TerminalSink
struct TerminalOptions {
  size_t scrollback = 1000;
  int64_t batch = 1;
};

class TerminalSink : public Eject {
 public:
  static constexpr const char* kType = "Terminal";

  explicit TerminalSink(Kernel& kernel, TerminalOptions options = {});

  // Starts (or redirects) the pump at (source, channel). Also available as
  // the "Connect" invocation: {source: uid, chan}.
  void Connect(Uid source, Value channel);

  const std::vector<std::string>& screen() const { return screen_; }
  bool idle() const { return active_pumps_ == 0; }
  uint64_t lines_shown() const { return lines_shown_; }

 private:
  Task<void> Pump(std::unique_ptr<StreamReader> reader, uint64_t generation);

  TerminalOptions options_;
  std::vector<std::string> screen_;
  uint64_t generation_ = 0;  // bumped by Connect: retires the old pump
  int active_pumps_ = 0;
  uint64_t lines_shown_ = 0;
};

// --------------------------------------------------------------- PrinterSink
struct PrinterOptions {
  int64_t lines_per_page = 60;
  int64_t batch = 1;
};

class PrinterSink : public Eject {
 public:
  static constexpr const char* kType = "Printer";

  explicit PrinterSink(Kernel& kernel, PrinterOptions options = {});

  // "A file could be printed simply by requesting the printer server to
  // read from the file." (§4) — also the "Print" invocation.
  void Print(Uid source, Value channel);

  const std::vector<std::vector<std::string>>& pages() const { return pages_; }
  bool idle() const { return active_jobs_ == 0; }
  uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  Task<void> Job(std::unique_ptr<StreamReader> reader);

  PrinterOptions options_;
  std::vector<std::vector<std::string>> pages_;
  int active_jobs_ = 0;
  uint64_t jobs_completed_ = 0;
};

// -------------------------------------------------------------- ReportWindow
class ReportWindow : public Eject {
 public:
  static constexpr const char* kType = "ReportWindow";

  explicit ReportWindow(Kernel& kernel);

  // Starts a tagged pump; also the "Attach" invocation:
  // {source: uid, chan, label: str}.
  void Attach(Uid source, Value channel, std::string label);

  const std::vector<std::string>& lines() const { return lines_; }
  bool idle() const { return active_pumps_ == 0; }

 private:
  Task<void> Pump(std::unique_ptr<StreamReader> reader, std::string label);

  std::vector<std::string> lines_;
  int active_pumps_ = 0;
};

// ------------------------------------------------------------------ NullSink
class NullSink : public Eject {
 public:
  static constexpr const char* kType = "NullSink";

  // max_items 0 = drain to end-of-stream.
  NullSink(Kernel& kernel, Uid source, Value channel, uint64_t max_items = 0,
           int64_t batch = 1);

  void OnStart() override;

  uint64_t discarded() const { return discarded_; }
  bool done() const { return done_; }

 private:
  Task<void> Drain();

  StreamReader reader_;
  uint64_t max_items_;
  uint64_t discarded_ = 0;
  bool done_ = false;
};

// --------------------------------------------------------------- ClockSource
class ClockSource : public Eject {
 public:
  static constexpr const char* kType = "Clock";

  explicit ClockSource(Kernel& kernel);
};

// ------------------------------------------------------------ KeyboardSource
// A terminal's input side: lines "typed" at scripted virtual-time offsets.
// Passive output like any source — parked Transfers are served as the
// keystrokes arrive, so a reader genuinely waits for the user.
struct Keystroke {
  Tick delay = 0;  // virtual time after the previous line
  std::string line;
};

class KeyboardSource : public Eject {
 public:
  static constexpr const char* kType = "Keyboard";

  KeyboardSource(Kernel& kernel, std::vector<Keystroke> script);

  void OnStart() override;

  uint64_t typed() const { return typed_; }
  StreamServer& server() { return server_; }

 private:
  Task<void> Typist();

  std::vector<Keystroke> script_;
  StreamServer server_;
  uint64_t typed_ = 0;
};

// -------------------------------------------------------------- RandomSource
class RandomSource : public Eject {
 public:
  static constexpr const char* kType = "RandomSource";

  // Serves `total` pseudo-random text lines (deterministic in `seed`);
  // total 0 = infinite.
  RandomSource(Kernel& kernel, uint64_t seed, uint64_t total,
               int words_per_line = 6);

 private:
  Rng rng_;
  uint64_t total_;
  uint64_t served_ = 0;
  int words_per_line_;
};

}  // namespace eden

#endif  // SRC_DEVICES_DEVICES_H_
