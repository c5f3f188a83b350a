#include "bench.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Spans::Scope::Scope(Spans *spans, const char *name) : spans_(spans)
{
    if (!spans_)
        return;
    index_ = spans_->spans_.size();
    spans_->spans_.push_back(Span{name, 0.0, 0.0, spans_->open_});
    spans_->open_ = static_cast<int64_t>(index_);
    spans_->spans_.back().start = wallNow();
}

Spans::Scope::~Scope()
{
    if (!spans_)
        return;
    Span &s = spans_->spans_[index_];
    s.end = wallNow();
    spans_->open_ = s.parent;
}

std::map<std::string, Spans::Total>
Spans::totals() const
{
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            covered[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Total> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Total &t = out[spans_[i].name];
        t.selfS += spans_[i].end - spans_[i].start - covered[i];
        ++t.calls;
    }
    return out;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

size_t
Report::failed() const
{
    size_t n = 0;
    for (const Item &it : items)
        n += it.failed ? 1 : 0;
    return n + badChecks.size();
}

double
Report::wallS() const
{
    double s = 0.0;
    for (const Item &it : items)
        s += it.seconds;
    return s;
}

RefTable
readRefs(const std::string &path)
{
    RefTable refs;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, f;
        fields >> key;
        while (fields >> f)
            refs[key].push_back(f);
    }
    return refs;
}

} // namespace perfbench
