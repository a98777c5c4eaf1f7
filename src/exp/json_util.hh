/**
 * @file
 * The one JSON text codec the experiment layer uses.
 *
 * The BENCH sinks and the run journal must agree byte-for-byte on how
 * strings and numbers are rendered: a journal row re-emitted on
 * resume has to reproduce the exact bytes the sink would have written
 * for the live run.  Keeping the escape and %.17g rules in one place
 * is what makes that a structural guarantee instead of a convention.
 * %.17g round-trips every finite double exactly through strtod, so
 * journal replay loses nothing.
 */

#ifndef TRRIP_EXP_JSON_UTIL_HH
#define TRRIP_EXP_JSON_UTIL_HH

#include <string>

namespace trrip::exp {

/**
 * Escape @p s for inclusion in a JSON string literal (no quotes):
 * \" and \\, \b \f \n \r \t, and \u00XX for every other byte below
 * 0x20, so no raw control byte reaches a BENCH file.
 */
std::string jsonEscape(const std::string &s);

/** Inverse of jsonEscape (also handles \/). */
std::string jsonUnescape(const std::string &s);

/** Shortest exact rendering of @p v ("null" for non-finite). */
std::string jsonNumber(double v);

} // namespace trrip::exp

#endif // TRRIP_EXP_JSON_UTIL_HH
