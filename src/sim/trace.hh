/**
 * @file
 * Event tracing in Chrome trace_event JSON format, loadable in
 * chrome://tracing and Perfetto. Components record timestamped spans
 * (fence stall begin/end, write-buffer drains, W+ squashes, directory
 * Nacks/bounces, NoC link occupancy) through the ASF_TRACE macro, which
 * compiles to a single predictable branch when tracing is disabled --
 * the arguments are not even evaluated. Simulated cycles map 1:1 to
 * trace microseconds.
 *
 * The sink is process-global (like the logging package): one trace file
 * per process, shared by every System instance. Multi-run binaries call
 * beginRun() so each experiment appears as its own process row in the
 * viewer.
 */

#ifndef ASF_SIM_TRACE_HH
#define ASF_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace asf
{

class Trace
{
  public:
    /** The process-global sink. Inline: ASF_TRACE sites read its
     *  flag on hot paths. */
    static Trace &get() { return instance_; }

    /** Start recording; the file is written on flush()/exit. */
    void open(const std::string &path);

    bool enabled() const { return enabled_; }

    /**
     * Begin a new logical run (one experiment): subsequent events carry
     * a fresh pid and the run label becomes the process name.
     */
    void beginRun(const std::string &label);

    /** Name a thread row (e.g. "core3", "dir1", "link 2E"). */
    void threadName(uint32_t tid, const std::string &name);

    /** A span [ts, ts+dur) on thread `tid` ("X" complete event). */
    void complete(Tick ts, Tick dur, uint32_t tid, const char *cat,
                  std::string name, std::string args_json = "");

    /** A zero-duration marker ("i" instant event). */
    void instant(Tick ts, uint32_t tid, const char *cat,
                 std::string name, std::string args_json = "");

    /** A counter track sample ("C" event). args_json holds the values,
     *  e.g. {"occupancy":12}. */
    void counter(Tick ts, uint32_t tid, std::string name,
                 std::string args_json);

    /** Write the JSON file. Safe to call more than once (rewrites). */
    void flush();

    size_t numEvents() const { return events_.size(); }

    /** Drop state and stop recording (tests). */
    void resetForTest();

  private:
    Trace() = default;

    /** Constant-initialized (see trace.cc), so it is usable from any
     *  other static initializer. */
    static Trace instance_;

    struct Event
    {
        char ph;
        Tick ts;
        Tick dur;
        uint32_t pid;
        uint32_t tid;
        const char *cat;
        std::string name;
        std::string args; ///< pre-rendered JSON object ("" = none)
    };

    bool enabled_ = false;
    std::string path_;
    uint32_t pid_ = 0;
    std::vector<Event> events_;
};

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Record through the sink iff tracing is on. `call` is a member call on
 * the sink, e.g. ASF_TRACE(instant(now, id, "dir", "nack")). Costs one
 * branch on a bool when disabled; arguments are not evaluated.
 */
#define ASF_TRACE(call)                                                   \
    do {                                                                  \
        if (::asf::Trace::get().enabled())                                \
            ::asf::Trace::get().call;                                     \
    } while (0)

} // namespace asf

#endif // ASF_SIM_TRACE_HH
