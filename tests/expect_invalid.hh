/**
 * @file
 * Test-only check for the library's one way of reporting a caller's
 * error: std::invalid_argument with a message naming the mistake.
 *
 * EXPECT_THROW pins only the type; the rule tests here also pin which
 * rule fired, so a call rejected for the wrong reason (or by a
 * different check on the way) does not pass by accident.
 */

#ifndef ASV_TESTS_EXPECT_INVALID_HH
#define ASV_TESTS_EXPECT_INVALID_HH

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace asv::testref
{

/** Expect @p call to throw std::invalid_argument whose what()
 *  contains @p text. Any other exception fails the test too. */
template <typename Call>
void
expectInvalid(Call &&call, const std::string &text)
{
    try {
        call();
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
            << "what(): " << e.what() << "\nwanted: " << text;
        return;
    }
    ADD_FAILURE() << "no std::invalid_argument (wanted: " << text << ")";
}

} // namespace asv::testref

#endif // ASV_TESTS_EXPECT_INVALID_HH
