#include "obs/trace_event.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss::obs {

TraceArg
TraceArg::str(std::string key, std::string value)
{
    return {std::move(key), std::move(value)};
}

TraceArg
TraceArg::num(std::string key, double value)
{
    if (std::isfinite(value))
        return {std::move(key), value};
    std::ostringstream os;
    os << value;
    return {std::move(key), os.str()};
}

TraceArg
TraceArg::num(std::string key, std::int64_t value)
{
    return {std::move(key), value};
}

TraceEventSink::TraceEventSink()
    : epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
TraceEventSink::nowMicros() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
TraceEventSink::push(Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
}

void
TraceEventSink::complete(std::string name, std::string category,
                         int tid, std::int64_t ts_us,
                         std::int64_t dur_us,
                         std::vector<TraceArg> args)
{
    Event event;
    event.phase = 'X';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.dur = dur_us;
    event.args = std::move(args);
    push(std::move(event));
}

void
TraceEventSink::instant(std::string name, std::string category,
                        int tid, std::int64_t ts_us,
                        std::vector<TraceArg> args)
{
    Event event;
    event.phase = 'i';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.args = std::move(args);
    push(std::move(event));
}

void
TraceEventSink::counter(std::string name, std::string category,
                        int tid, std::int64_t ts_us, double value)
{
    Event event;
    event.phase = 'C';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.args.push_back(TraceArg::num("value", value));
    push(std::move(event));
}

int
TraceEventSink::allocateTrack(const std::string &name)
{
    // The metadata event is appended inline rather than via push():
    // the track id and its thread_name must land under one lock so
    // two racing allocations of different names cannot interleave.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    const int tid =
        kFirstAllocatedTrack + static_cast<int>(tracks_.size());
    tracks_.emplace(name, tid);
    Event event;
    event.phase = 'M';
    event.name = "thread_name";
    event.tid = tid;
    event.args.push_back(TraceArg::str("name", name));
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
    return tid;
}

void
TraceEventSink::setProcessName(std::string name)
{
    Event event;
    event.phase = 'M';
    event.name = "process_name";
    event.args.push_back(TraceArg::str("name", std::move(name)));
    push(std::move(event));
}

void
TraceEventSink::setThreadName(int tid, std::string name)
{
    Event event;
    event.phase = 'M';
    event.name = "thread_name";
    event.tid = tid;
    event.args.push_back(TraceArg::str("name", std::move(name)));
    push(std::move(event));
}

std::size_t
TraceEventSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
TraceEventSink::write(std::ostream &os) const
{
    std::vector<Event> sorted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sorted = events_;
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Event &a, const Event &b) {
                  // Metadata first so viewers name tracks before any
                  // span references them; then chronological with
                  // record order as the tie-break.
                  if ((a.phase == 'M') != (b.phase == 'M'))
                      return a.phase == 'M';
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.seq < b.seq;
              });

    util::JsonWriter json(os);
    json.beginObject().key("traceEvents").beginArray(util::JsonWriter::kLines);
    for (const Event &e : sorted) {
        json.beginObject()
            .field("name", e.name).field("ph", std::string_view(&e.phase, 1))
            .field("pid", 1).field("tid", e.tid);
        if (e.phase != 'M') {
            json.field("ts", e.ts);
            if (!e.category.empty())
                json.field("cat", e.category);
            if (e.phase == 'X')
                json.field("dur", e.dur);
            if (e.phase == 'i')
                json.field("s", "t");
        }
        if (!e.args.empty()) {
            json.key("args").beginObject();
            for (const TraceArg &arg : e.args) {
                json.key(arg.key);
                std::visit([&json](const auto &v) { json.value(v); },
                           arg.value);
            }
            json.end();
        }
        json.end();
    }
    json.end().field("displayTimeUnit", "ms").end();
}

void
TraceEventSink::writeFile(const std::string &path) const
{
    util::writeArtifactFile(path, "TraceEventSink",
                            [this](std::ostream &os) { write(os); });
}

} // namespace wss::obs
