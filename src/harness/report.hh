/**
 * @file
 * Report formatting: aligned ASCII tables for terminals, CSV rows for
 * post-processing, and a streaming JSON writer for the machine-readable
 * stats report, used by every bench binary.
 */

#ifndef ASF_HARNESS_REPORT_HH
#define ASF_HARNESS_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace asf::harness
{

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Aligned ASCII rendering. */
    void print(std::ostream &os) const;

    /** Comma-separated rendering (header + rows). */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Minimal streaming JSON writer. Tracks container nesting so commas are
 * emitted automatically; panics on malformed sequences (a key outside
 * an object, mismatched end). Doubles are emitted with enough precision
 * to round-trip; NaN/inf (not valid JSON) become null.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must be followed by a value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(unsigned v) { return value(uint64_t(v)); }
    JsonWriter &value(int v) { return value(int64_t(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);

    /** Splice a pre-rendered JSON value verbatim (caller guarantees
     *  validity). */
    JsonWriter &raw(const std::string &json);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    void beforeValue();

    std::ostream &os_;
    /** One char per open container: 'o'/'O' object (empty/nonempty),
     *  'a'/'A' array, 'k' pending key. */
    std::string stack_;
};

/** Fixed-precision double formatting. */
std::string fmtDouble(double v, int precision = 2);

/** Percentage with sign, e.g. "+13.2%". */
std::string fmtPct(double fraction, int precision = 1);

} // namespace asf::harness

#endif // ASF_HARNESS_REPORT_HH
