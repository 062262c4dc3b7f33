#include "src/core/conformance.h"

namespace eden {
namespace {

struct Batch {
  Status status;
  ValueList items;
  bool end = false;
};

Batch FetchOne(Kernel& kernel, Uid source, const Value& channel, int64_t max) {
  InvokeResult r = kernel.InvokeAndRun(source, std::string(kOpTransfer),
                                       TransferArgs{channel, max});
  Batch batch;
  batch.status = r.status;
  if (!r.ok()) {
    return batch;
  }
  if (BatchReply* reply = r.As<BatchReply>()) {
    batch.items = std::move(reply->items);
    batch.end = reply->end;
  } else {
    batch.status = Status(StatusCode::kInvalidArgument, "Transfer reply is not a batch");
  }
  return batch;
}

// Streams the whole channel, cycling max through 1..3 to exercise batching.
// Returns false (with a violation recorded) on protocol errors.
bool FetchAll(Kernel& kernel, Uid source, const ConformanceOptions& options,
              ConformanceReport& report, ValueList& out) {
  int64_t max_cycle[] = {1, 2, 3};
  for (int i = 0; i < options.max_transfers; ++i) {
    int64_t max = max_cycle[i % 3];
    Batch batch = FetchOne(kernel, source, options.channel, max);
    if (!batch.status.ok()) {
      report.Violate("Transfer " + std::to_string(i) + " failed: " +
                     batch.status.ToString());
      return false;
    }
    if (static_cast<int64_t>(batch.items.size()) > max) {
      report.Violate("batch of " + std::to_string(batch.items.size()) +
                     " items exceeds requested max " + std::to_string(max));
    }
    for (Value& item : batch.items) {
      out.push_back(std::move(item));
    }
    if (batch.end) {
      return true;
    }
  }
  report.Violate("stream did not end within " +
                 std::to_string(options.max_transfers) + " Transfers");
  return false;
}

}  // namespace

std::string ConformanceReport::Summary() const {
  if (conformant) {
    return "conformant (" + std::to_string(items.size()) + " items)";
  }
  std::string out = "NON-CONFORMANT:";
  for (const std::string& violation : violations) {
    out += "\n  - " + violation;
  }
  return out;
}

ConformanceReport CheckSourceConformance(Kernel& kernel, Uid source,
                                         const ConformanceOptions& options) {
  ConformanceReport report;

  // 5. Unknown channel (probed first: vanish-style sources die after end).
  if (options.check_unknown_channel) {
    InvokeResult bogus = kernel.InvokeAndRun(
        source, std::string(kOpTransfer),
        TransferArgs{Value("conformance-bogus-channel"), 1});
    if (!bogus.status.is(StatusCode::kNoSuchChannel)) {
      report.Violate("unknown channel answered " + bogus.status.ToString() +
                     " instead of NO_SUCH_CHANNEL");
    }
  }

  // 1,2,3,6. The stream itself.
  if (!FetchAll(kernel, source, options, report, report.items)) {
    return report;
  }

  // 4. Post-end behaviour.
  switch (options.post_end) {
    case PostEndBehavior::kEmptyEnd: {
      for (int probe = 0; probe < 2; ++probe) {
        Batch batch = FetchOne(kernel, source, options.channel, 4);
        if (!batch.status.ok()) {
          report.Violate("post-end Transfer failed: " + batch.status.ToString());
          break;
        }
        if (!batch.items.empty() || !batch.end) {
          report.Violate("post-end Transfer returned items or lacked end");
        }
      }
      break;
    }
    case PostEndBehavior::kRewind: {
      ValueList second_pass;
      if (FetchAll(kernel, source, options, report, second_pass)) {
        if (second_pass != report.items) {
          report.Violate("rewound second pass differed from the first");
        }
      }
      break;
    }
    case PostEndBehavior::kVanish: {
      kernel.Run();  // let the deferred self-deactivation land
      Batch batch = FetchOne(kernel, source, options.channel, 1);
      if (!batch.status.is(StatusCode::kNoSuchEject)) {
        report.Violate("post-end Transfer answered " + batch.status.ToString() +
                       " instead of NO_SUCH_EJECT (source should vanish)");
      }
      break;
    }
  }
  return report;
}

}  // namespace eden
