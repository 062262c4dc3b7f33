// The utility filters the paper motivates (§3):
//
// "A simple example of a filter is a program whose output is a copy of its
//  input except that all lines beginning with 'C' have been omitted. Such a
//  filter might be used to strip comment lines from a Fortran program...
//  Text formatters, stream editors, spelling checkers, prettyprinters and
//  paginators are all filters."
//
// All of these are pure Transforms: they run unchanged under any discipline.
// Items are Value strings (lines) unless noted.
#ifndef SRC_FILTERS_TRANSFORMS_H_
#define SRC_FILTERS_TRANSFORMS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/core/transform.h"
#include "src/eden/ring.h"

namespace eden {

// Identity; useful for pipeline-shape experiments.
class CopyTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "copy"; }
};

// Drops lines beginning with `prefix` — the paper's Fortran comment
// stripper when prefix == "C".
class StripPrefixTransform : public Transform {
 public:
  explicit StripPrefixTransform(std::string prefix) : prefix_(std::move(prefix)) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "strip-prefix"; }

 private:
  std::string prefix_;
};

// Keeps (or, inverted, drops) lines containing `pattern` — the paper's
// "filter which deletes all lines matching a pattern given as an argument".
class GrepTransform : public Transform {
 public:
  GrepTransform(std::string pattern, bool invert = false)
      : pattern_(std::move(pattern)), invert_(invert) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return invert_ ? "grep-v" : "grep"; }

 private:
  std::string pattern_;
  bool invert_;
};

// Case conversion / rot13.
class TranslateTransform : public Transform {
 public:
  enum class Mode { kUpper, kLower, kRot13 };
  explicit TranslateTransform(Mode mode) : mode_(mode) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "translate"; }

 private:
  Mode mode_;
};

// Substring replacement (first occurrence per line, like sed s/a/b/).
class ReplaceTransform : public Transform {
 public:
  ReplaceTransform(std::string from, std::string to, bool global = true)
      : from_(std::move(from)), to_(std::move(to)), global_(global) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "replace"; }

 private:
  std::string from_;
  std::string to_;
  bool global_;
};

// First n items.
class HeadTransform : public Transform {
 public:
  explicit HeadTransform(int64_t limit) : limit_(limit) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  bool Done() const override { return seen_ >= limit_; }
  std::string name() const override { return "head"; }

 private:
  int64_t limit_;
  int64_t seen_ = 0;
};

// Last n items (held back until end-of-stream).
class TailTransform : public Transform {
 public:
  explicit TailTransform(int64_t limit) : limit_(limit) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::string name() const override { return "tail"; }

 private:
  int64_t limit_;
  Ring<Value> window_;
};

// Prefixes each line with its 1-based number.
class LineNumberTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "nl"; }

 private:
  int64_t line_ = 0;
};

// Counts lines/words/characters; emits one summary line at end (wc).
class WordCountTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::string name() const override { return "wc"; }

 private:
  int64_t lines_ = 0;
  int64_t words_ = 0;
  int64_t chars_ = 0;
};

// The paginator of §4: inserts page headers every `page_length` lines.
class PaginateTransform : public Transform {
 public:
  PaginateTransform(int64_t page_length, std::string title)
      : page_length_(page_length), title_(std::move(title)) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::string name() const override { return "paginate"; }

 private:
  void EmitHeader(const EmitFn& emit);

  int64_t page_length_;
  std::string title_;
  int64_t line_on_page_ = 0;
  int64_t page_ = 0;
};

// Tab expansion (a text formatter in miniature).
class ExpandTabsTransform : public Transform {
 public:
  explicit ExpandTabsTransform(int64_t tab_width = 8) : tab_width_(tab_width) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "expand"; }

 private:
  int64_t tab_width_;
};

// Drops consecutive duplicate lines (uniq).
class DedupTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "uniq"; }

 private:
  bool has_last_ = false;
  Value last_;
};

// Emits the whole stream sorted at end-of-stream.
class SortTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::string name() const override { return "sort"; }

 private:
  ValueList held_;
};

// Emits the whole stream reversed at end-of-stream.
class ReverseTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::string name() const override { return "reverse"; }

 private:
  ValueList held_;
};

// A naive prettyprinter: re-indents by brace/paren depth.
class PrettyPrintTransform : public Transform {
 public:
  explicit PrettyPrintTransform(int64_t indent_width = 2)
      : indent_width_(indent_width) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "pretty"; }

 private:
  int64_t indent_width_;
  int64_t depth_ = 0;
};

// A spelling checker in miniature: emits words not in its dictionary.
class SpellTransform : public Transform {
 public:
  explicit SpellTransform(std::set<std::string> dictionary)
      : dictionary_(std::move(dictionary)) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::string name() const override { return "spell"; }

 private:
  std::set<std::string> dictionary_;
};

// Routes each line to channel "out" or "rest" depending on whether it
// contains the pattern — fan-out with *disjoint* streams, the grep/grep-v
// pair fused into one filter via channel identifiers (§5).
class SplitTransform : public Transform {
 public:
  explicit SplitTransform(std::string pattern) : pattern_(std::move(pattern)) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::vector<std::string> output_channels() const override;
  std::string name() const override { return "split"; }

 private:
  std::string pattern_;
};

// Duplicates every item onto a second channel ("copy") in addition to the
// primary — fan-out expressed with channel identifiers (§5).
class TeeTransform : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override;
  std::vector<std::string> output_channels() const override;
  std::string name() const override { return "tee"; }
};

// Wraps another transform and emits progress Reports on the "report"
// channel — "it is also common for a program to produce a stream of
// Reports ... in addition to its main output stream" (§5).
class ReportingTransform : public Transform {
 public:
  ReportingTransform(std::unique_ptr<Transform> inner, int64_t report_every)
      : inner_(std::move(inner)), report_every_(report_every) {}
  void OnItem(const Value& item, const EmitFn& emit) override;
  void OnEnd(const EmitFn& emit) override;
  std::vector<std::string> output_channels() const override;
  std::string name() const override { return inner_->name() + "+report"; }

 private:
  std::unique_ptr<Transform> inner_;
  int64_t report_every_;
  int64_t seen_ = 0;
};

}  // namespace eden

#endif  // SRC_FILTERS_TRANSFORMS_H_
