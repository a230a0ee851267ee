# Injected into the natle_sim project through CMAKE_PROJECT_INCLUDE (see
# run.sh), so the benchmark builds with the project's own flags (-O3 -g, LTO)
# without editing any build file outside bench/bm/. The natle_* library
# targets do not exist yet when project() returns, so the target definitions
# are deferred to the end of the top-level directory.
set(NATLE_BM_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${NATLE_BM_DIR}/targets.cmake)
