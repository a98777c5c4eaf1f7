#include "util/error.hh"

namespace trrip {

const char *
errorCategoryName(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::TraceCorrupt: return "trace_corrupt";
      case ErrorCategory::Timeout: return "timeout";
      case ErrorCategory::Injected: return "injected";
      case ErrorCategory::Internal: return "internal";
    }
    return "unknown";
}

SimError::SimError(ErrorCategory category, std::string message) :
    category_(category), message_(std::move(message)),
    what_(describe())
{}

void
SimError::addContext(std::string frame)
{
    context_.push_back(std::move(frame));
    what_ = describe();
}

std::string
SimError::describe() const
{
    std::string out = "[";
    out += errorCategoryName(category_);
    out += "] ";
    out += message_;
    for (const std::string &frame : context_) {
        out += "; ";
        out += frame;
    }
    return out;
}

} // namespace trrip
