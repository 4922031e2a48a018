# CTest driver pinning the usage-error exit code of the bench and
# example mains that parse flags: an unknown flag must print
# "<program>: <message>" and exit 2, not abort (SIGABRT would also
# satisfy WILL_FAIL, so the code is checked here).
# Variables: PROGRAMS (semicolon-separated binaries).

foreach(prog IN LISTS PROGRAMS)
    get_filename_component(name ${prog} NAME)
    execute_process(
        COMMAND ${prog} --bogus
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "${name} --bogus must exit 2, got ${rc}")
    endif()
    if(NOT err MATCHES "^${name}: ")
        message(FATAL_ERROR
            "${name} --bogus must report \"${name}: <message>\", "
            "got: ${err}")
    endif()
endforeach()
