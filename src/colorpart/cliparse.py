"""A click Group that parses each request once against a table compiled
from its commands' declared options.

click's own main builds two Contexts, two option parsers and a fresh help
Option for every request.  TableGroup scans the arguments once against a
per-command table built on that command's first request, converts each
value through its option's click type, and calls the command's callback.
A Context is made only to print help or a usage error, so the help text,
the type conversions and every error message stay click's own, with exit
code 2 for a usage error.

The table knows long options that take one value and boolean flags, which
is all the colorpart commands declare; a command declaring anything else
is refused when its table is compiled.  Shell completion is not offered.
"""

import errno
import sys

import click
from click.exceptions import NoArgsIsHelpError
from click.utils import PacifyFlushWrapper, _detect_program_name

HELP = "--help"


class Table:
    """One command's declared options, compiled.

    options: option string -> its click.Option, or None for --help;
    required: the required Options, in declaration order;
    defaults: the value of every option left out, as click computes it
    for an empty command line."""

    __slots__ = ("options", "required", "defaults")

    def __init__(self, cmd):
        self.options = {}
        for p in cmd.params:
            if not (isinstance(p, click.Option) and p.nargs == 1
                    and not (p.multiple or p.count or p.secondary_opts
                             or p.envvar or p.prompt or p.callback)
                    and (p.is_bool_flag or not p.is_flag)
                    and all(o.startswith("--") for o in p.opts)):
                raise TypeError("%s: %s is not a long option taking one value "
                                "or a boolean flag" % (cmd.name, p.name))
            self.options.update(dict.fromkeys(p.opts, p))
        self.options[HELP] = None
        self.required = tuple(p for p in cmd.params if p.required)
        self.defaults = cmd.make_context(cmd.name, [],
                                         resilient_parsing=True).params

    def scan(self, args, interspersed=True):
        """One pass over args, as click's parser makes it.

        Returns ({name: (Option, raw value)} in the order each option first
        appears, keeping its last value; the arguments that are not
        options; whether --help was given).  Without interspersed, the scan
        stops at the first argument that is not an option."""
        given, rest, want_help = {}, [], False
        i, n = 0, len(args)
        while i < n:
            arg = args[i]
            i += 1
            if arg == "--":
                break
            if arg[:1] != "-" or len(arg) == 1:
                if not interspersed:
                    i -= 1
                    break
                rest.append(arg)
                continue
            opt, eq, value = arg.partition("=")
            if opt not in self.options:
                if arg[:2] != "--":
                    # click reads it as a cluster of one-letter options,
                    # and no command declares any
                    raise click.NoSuchOption(arg[:2])
                raise click.NoSuchOption(opt, possibilities=self.options)
            param = self.options[opt]
            if param is None or param.is_flag:
                if eq:
                    raise click.BadOptionUsage(
                        opt, "Option %r does not take a value." % opt)
                if param is None:
                    want_help = True
                else:
                    given[param.name] = (param, param.flag_value)
                continue
            if not eq:
                if i == n:
                    raise click.BadOptionUsage(
                        opt, "Option %r requires an argument." % opt)
                value = args[i]
                i += 1
            given[param.name] = (param, value)
        rest.extend(args[i:])
        return given, rest, want_help

    def parse(self, args):
        """The callback's keyword arguments, or None for --help.  Values are
        converted in the order their options first appear, then a missing
        required option is reported, then any extra argument, as in click."""
        given, rest, want_help = self.scan(args)
        if want_help:
            return None
        kwargs = dict(self.defaults)
        for name, (param, value) in given.items():
            kwargs[name] = param.type.convert(value, param, None)
        for param in self.required:
            if param.name not in given:
                raise click.MissingParameter(param=param)
        if rest:
            raise click.UsageError("Got unexpected extra argument%s (%s)" % (
                "s" if len(rest) > 1 else "", " ".join(rest)))
        return kwargs


class TableGroup(click.Group):
    """A click.Group whose main() parses through compiled Tables.  The
    group stays the command registry and the source of help and usage
    text; each callback is looked up when it is called."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tables = {}

    def _table(self, cmd):
        table = self._tables.get(cmd)
        if table is None:
            table = self._tables[cmd] = Table(cmd)
        return table

    def _context(self, prog_name, name=None, cmd=None):
        """The Context click would have made for the group, or for the
        command under it: what help and usage lines are printed from."""
        ctx = click.Context(self, info_name=_detect_program_name()
                            if prog_name is None else prog_name)
        return ctx if cmd is None else click.Context(cmd, info_name=name,
                                                     parent=ctx)

    def _resolve(self, args):
        """(name, command, its arguments), or Nones for the group's --help."""
        table = self._table(self)
        _, rest, want_help = table.scan(args, interspersed=False)
        if want_help:
            return None, None, None
        if not rest:
            raise click.UsageError("Missing command.")
        name = rest[0]
        cmd = self.commands.get(name)
        if cmd is None:
            # as click does, a name that looks like an option is scanned
            # as the group's options again, so '-- --help' shows help
            if name[:1] and not name[:1].isalnum() and table.scan(
                    rest, interspersed=False)[2]:
                return None, None, None
            raise click.NoSuchCommand(name, possibilities=self.commands)
        return name, cmd, rest[1:]

    def main(self, args=None, prog_name=None):
        """Run one request and exit: 0 on success, 2 on a usage error, and
        what the callback exits with otherwise."""
        args = sys.argv[1:] if args is None else list(args)
        name = cmd = None
        try:
            try:
                if not args:
                    raise NoArgsIsHelpError(self._context(prog_name))
                name, cmd, rest = self._resolve(args)
                kwargs = None if cmd is None else self._table(cmd).parse(rest)
                if kwargs is None:
                    ctx = self._context(prog_name, name, cmd)
                    click.echo(ctx.get_help(), color=ctx.color)
                else:
                    cmd.callback(**kwargs)
            except click.UsageError as exc:
                # click's parser reports a misused option without a
                # Context, so with no usage line: keep it that way
                if exc.ctx is None and not isinstance(exc,
                                                      click.BadOptionUsage):
                    exc.ctx = self._context(prog_name, name, cmd)
                raise
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except (EOFError, KeyboardInterrupt):
            click.echo(file=sys.stderr)
            click.echo("Aborted!", file=sys.stderr)
            sys.exit(1)
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise
            # a reader that closed the pipe early: exit without a traceback
            sys.stdout = PacifyFlushWrapper(sys.stdout)
            sys.stderr = PacifyFlushWrapper(sys.stderr)
            sys.exit(1)
        sys.exit(0)
