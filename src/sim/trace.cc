#include "sim/trace.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace asf
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

constinit Trace Trace::instance_;

namespace
{
void
flushGlobalTrace()
{
    Trace::get().flush();
}
} // namespace

void
Trace::open(const std::string &path)
{
    if (path.empty())
        fatal("trace output path is empty");
    bool was_enabled = enabled_;
    path_ = path;
    enabled_ = true;
    if (!was_enabled)
        std::atexit(flushGlobalTrace);
}

void
Trace::beginRun(const std::string &label)
{
    if (!enabled_)
        return;
    pid_++;
    Event e;
    e.ph = 'M';
    e.ts = 0;
    e.dur = 0;
    e.pid = pid_;
    e.tid = 0;
    e.cat = "__metadata";
    e.name = "process_name";
    e.args = format("{\"name\":\"%s\"}", jsonEscape(label).c_str());
    events_.push_back(std::move(e));
}

void
Trace::threadName(uint32_t tid, const std::string &name)
{
    if (!enabled_)
        return;
    Event e;
    e.ph = 'M';
    e.ts = 0;
    e.dur = 0;
    e.pid = pid_;
    e.tid = tid;
    e.cat = "__metadata";
    e.name = "thread_name";
    e.args = format("{\"name\":\"%s\"}", jsonEscape(name).c_str());
    events_.push_back(std::move(e));
}

void
Trace::complete(Tick ts, Tick dur, uint32_t tid, const char *cat,
                std::string name, std::string args_json)
{
    events_.push_back(Event{'X', ts, dur, pid_, tid, cat,
                            std::move(name), std::move(args_json)});
}

void
Trace::instant(Tick ts, uint32_t tid, const char *cat, std::string name,
               std::string args_json)
{
    events_.push_back(Event{'i', ts, 0, pid_, tid, cat, std::move(name),
                            std::move(args_json)});
}

void
Trace::counter(Tick ts, uint32_t tid, std::string name,
               std::string args_json)
{
    events_.push_back(Event{'C', ts, 0, pid_, tid, "counter",
                            std::move(name), std::move(args_json)});
}

void
Trace::flush()
{
    if (!enabled_ || path_.empty())
        return;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        warn("cannot write trace file '%s'", path_.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < events_.size(); i++) {
        const Event &e = events_[i];
        std::fprintf(f,
                     "{\"ph\":\"%c\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
                     "\"cat\":\"%s\",\"name\":\"%s\"",
                     e.ph, (unsigned long long)e.ts, e.pid, e.tid, e.cat,
                     jsonEscape(e.name).c_str());
        if (e.ph == 'X')
            std::fprintf(f, ",\"dur\":%llu", (unsigned long long)e.dur);
        if (e.ph == 'i')
            std::fprintf(f, ",\"s\":\"t\""); // thread-scoped instant
        if (!e.args.empty())
            std::fprintf(f, ",\"args\":%s", e.args.c_str());
        std::fprintf(f, "}%s\n", i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

void
Trace::resetForTest()
{
    enabled_ = false;
    path_.clear();
    pid_ = 0;
    events_.clear();
}

} // namespace asf
